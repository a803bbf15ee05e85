package bench

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyExports holds every func and method declared in a non-test
// file under internal/, cmd/ or examples/ to being reachable from a
// program the module builds, so code only its own tests call cannot pile
// up again. The census is by type, not by name: every non-test package is
// type-checked (the standard library from source, offline), and a func is
// reachable when a reachable body, a main, an init or a package-level
// initialiser refers to it. A call through an interface reaches the method
// of that name on every module type that implements the interface; a
// standard-library interface that the library calls back (fmt.Stringer,
// error, sort and heap interfaces, io.Writer, flag.Value, http.Handler)
// reaches its methods on every implementing type. A test hook one package
// needs belongs in that package's export_test.go. An allow-listed func is
// kept on purpose: it must be unreachable on its own, and it counts as a
// root, so what it calls is kept with it.
func TestNoTestOnlyExports(t *testing.T) {
	allowed := map[string]string{
		"repro/internal/telemetry.Digest":          "determinism witness the telemetry and bench tests compare",
		"repro/internal/pisa.SharedRegister.Reset": "the control plane's register reset (paper §1), pinned by pisa's TestSharedRegisterReset",
	}
	const root, module = "../..", "repro"
	c := loadModule(t, root, module)
	unkept := map[string]bool{}
	for _, f := range c.unreachable(nil) {
		unkept[funcKey(f)] = true
	}
	for key := range allowed {
		if !unkept[key] {
			t.Errorf("allow-list entry %s names no unreachable func: drop it", key)
		}
	}
	for _, f := range c.unreachable(allowed) {
		pos := c.fset.Position(f.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("%s:%d: %s is not reachable from any program the module builds: delete it, or move it to an export_test.go if it is a test hook",
			file, pos.Line, strings.TrimPrefix(funcKey(f), module+"/"))
	}
}

// TestNoUnsetKnobs holds every exported field of an exported struct type
// named Config, Options, *Config or *Options under internal/ to being set
// by some program the module builds, so a knob only tests turn cannot pile
// up again. The census is by type: a field is set when a non-test file
// names it as a composite-literal key, or assigns it, increments it or
// takes its address (directly or through an index) in a package other
// than the one that declares it — a package filling in its own defaults
// sets nothing. An allow-listed field is kept on purpose; it must still be
// unset.
func TestNoUnsetKnobs(t *testing.T) {
	allowed := map[string]string{
		"repro/internal/core.Config.QueuesPerPort": "benchmark/engine.go copies it into tm.Config; the switch ignores it",
		"repro/internal/core.Config.Discipline":    "benchmark/engine.go copies it into tm.Config; the switch ignores it",
	}
	const root, module = "../..", "repro"
	c := loadModule(t, root, module)
	unset := c.unsetKnobs()
	unkept := map[string]bool{}
	for _, k := range unset {
		unkept[k.key] = true
	}
	for key := range allowed {
		if !unkept[key] {
			t.Errorf("allow-list entry %s names no unset knob: drop it", key)
		}
	}
	for _, k := range unset {
		if _, ok := allowed[k.key]; ok {
			continue
		}
		pos := c.fset.Position(k.field.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("%s:%d: %s is set by no program the module builds: delete it or make it a constant",
			file, pos.Line, strings.TrimPrefix(k.key, module+"/"))
	}
}

// funcKey names a func as pkgpath.F or pkgpath.T.M.
func funcKey(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// census is the type-checked module: its files, their type information,
// and every func each declares.
type census struct {
	fset   *token.FileSet
	files  map[string][]*ast.File // by package path
	pkgs   map[string]*types.Package
	info   *types.Info
	bodies map[*types.Func]*ast.FuncDecl
	std    types.Importer
	dir    map[string]string // package path -> directory
}

func loadModule(t *testing.T, root, module string) *census {
	t.Helper()
	// The source importer type-checks the standard library from GOROOT;
	// without cgo it needs no C toolchain and no build cache.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	c := &census{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		dir:   map[string]string{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		bodies: map[*types.Func]*ast.FuncDecl{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		c.files[pkg] = append(c.files[pkg], f)
		c.dir[pkg] = rel
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range c.files {
		if _, err := c.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// Import type-checks a module package (once) or defers to the standard
// library's source importer.
func (c *census) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	files, ok := c.files[path]
	if !ok {
		return c.std.Import(path)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				c.bodies[c.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	return p, nil
}

// unreachable returns every func declared under internal/, cmd/ or
// examples/ that no program of the module reaches, nor a kept func,
// sorted by position.
func (c *census) unreachable(kept map[string]string) []*types.Func {
	reached := map[*types.Func]bool{}
	var work []*types.Func
	reach := func(f *types.Func) {
		f = f.Origin()
		if !reached[f] {
			reached[f] = true
			work = append(work, f)
		}
	}
	// named lists the module's named types, for interface dispatch.
	var named []*types.Named
	for _, p := range c.pkgs {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok && !types.IsInterface(nt) {
					named = append(named, nt)
				}
			}
		}
	}
	dispatch := func(iface *types.Interface, name string) {
		for _, nt := range named {
			var typ types.Type = nt
			if nt.TypeParams().Len() > 0 {
				continue // a generic type's methods are reached by their instances
			}
			if !types.Implements(typ, iface) {
				typ = types.NewPointer(nt)
				if !types.Implements(typ, iface) {
					continue
				}
			}
			if obj, _, _ := types.LookupFieldOrMethod(typ, true, nt.Obj().Pkg(), name); obj != nil {
				if f, ok := obj.(*types.Func); ok {
					reach(f)
				}
			}
		}
	}
	// Roots: every main, every init, every package-level initialiser, and
	// every func kept on purpose (what it calls is kept with it).
	for f := range c.bodies {
		if _, ok := kept[funcKey(f)]; ok {
			reach(f)
		}
	}
	var inits []ast.Node
	for path, files := range c.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := c.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && c.pkgs[path].Name() == "main") {
						reach(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						inits = append(inits, d)
					}
				}
			}
		}
	}
	// Standard-library interfaces whose methods the library itself calls
	// on values the module hands it.
	callbacks := [][2]string{
		{"fmt", "Stringer"}, {"fmt", "Formatter"}, {"sort", "Interface"},
		{"container/heap", "Interface"}, {"io", "Writer"}, {"io", "Reader"},
		{"io", "Closer"}, {"flag", "Value"}, {"net/http", "Handler"},
		{"encoding/json", "Marshaler"}, {"encoding", "TextMarshaler"},
	}
	for _, cb := range callbacks {
		p, err := c.std.Import(cb[0])
		if err != nil {
			continue
		}
		iface := p.Scope().Lookup(cb[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			dispatch(iface, iface.Method(i).Name())
		}
	}
	// error, and the Unwrap that errors.Is and errors.As look for.
	errType := types.Universe.Lookup("error").Type()
	dispatch(errType.Underlying().(*types.Interface), "Error")
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil)
	dispatch(unwrap.Complete(), "Unwrap")

	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			f, ok := c.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			sig := f.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				dispatch(recv.Type().Underlying().(*types.Interface), f.Name())
			}
			reach(f)
			return true
		})
	}
	for _, n := range inits {
		visit(n)
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if fd := c.bodies[f]; fd != nil && fd.Body != nil {
			visit(fd.Body)
		}
	}

	var dead []*types.Func
	for f := range c.bodies {
		path := f.Pkg().Path()
		dir := c.dir[path]
		if !strings.HasPrefix(dir, "internal") && !strings.HasPrefix(dir, "cmd") && !strings.HasPrefix(dir, "examples") {
			continue
		}
		if !reached[f] && f.Name() != "_" {
			dead = append(dead, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	return dead
}

// knob is an exported field of an exported struct type named Config,
// Options, *Config or *Options under internal/, keyed pkgpath.T.F.
type knob struct {
	field *types.Var
	key   string
}

// unsetKnobs returns every knob no non-test file sets, sorted by position.
func (c *census) unsetKnobs() []knob {
	set := map[*types.Var]bool{}
	for path, files := range c.files {
		// target marks the field an assignment, inc/dec or & writes, when
		// it is written from outside its own package.
		target := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					if f, ok := c.info.Uses[x.Sel].(*types.Var); ok && f.Pkg().Path() != path {
						set[f] = true
					}
				}
				return
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if f, ok := c.info.Uses[id].(*types.Var); ok {
							set[f] = true
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						target(l)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
		}
	}
	var unset []knob
	for path, p := range c.pkgs {
		if !strings.HasPrefix(c.dir[path], "internal") {
			continue
		}
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset = append(unset, knob{f, path + "." + n + "." + f.Name()})
				}
			}
		}
	}
	sort.Slice(unset, func(i, j int) bool { return unset[i].field.Pos() < unset[j].field.Pos() })
	return unset
}
