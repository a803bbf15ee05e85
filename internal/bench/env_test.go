package bench

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

// TestEnvDefaults pins what the zero Env (and out-of-range values) mean.
func TestEnvDefaults(t *testing.T) {
	for _, tc := range []struct {
		env              *Env
		workers, domains int
	}{
		{&Env{}, runtime.GOMAXPROCS(0), 1},
		{&Env{Parallelism: -3, Domains: -1}, runtime.GOMAXPROCS(0), 1},
		{&Env{Parallelism: 5, Domains: 4}, 5, 4},
	} {
		if got := tc.env.workers(); got != tc.workers {
			t.Errorf("Parallelism %d: %d workers, want %d", tc.env.Parallelism, got, tc.workers)
		}
		if got := tc.env.domains(); got != tc.domains {
			t.Errorf("Domains %d: %d domains, want %d", tc.env.Domains, got, tc.domains)
		}
	}
}

// goldenSection cuts one experiment's table out of the committed evbench
// output.
func goldenSection(t *testing.T, golden, id string) string {
	t.Helper()
	i := strings.Index(golden, "== "+id+":")
	if i < 0 {
		t.Fatalf("no %s section in testdata/evbench.golden", id)
	}
	// evbench prints each table followed by one blank line.
	if j := strings.Index(golden[i:], "\n\n== "); j >= 0 {
		return golden[i : i+j+1]
	}
	return strings.TrimSuffix(golden[i:], "\n")
}

// TestTwoCampaignsConcurrently is what Env exists for: two campaigns that
// agree on nothing — widths, engine paths, telemetry, self-metrics — run
// in one process at the same time, and neither sees the other. Both
// render the committed tables; the instrumented one exports exactly what
// it exports when run alone and its plane counts its own trials only;
// the plain one collects nothing.
func TestTwoCampaignsConcurrently(t *testing.T) {
	golden, err := os.ReadFile("testdata/evbench.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	var exps []Experiment
	for _, id := range []string{"hula", "fig3"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
		want += goldenSection(t, string(golden), id)
	}
	campaign := func(env *Env) (out string, trials int) {
		for _, e := range exps {
			res := e.Run(env)
			out += res.String()
			trials += len(res.Rows) // one row per trial in both tables
		}
		return out, trials
	}
	export := func(env *Env) []byte {
		runs := env.TelemetryRuns()
		m, err := telemetry.EncodeMetrics(runs)
		if err != nil {
			t.Fatal(err)
		}
		j, err := telemetry.EncodeJSONL(runs)
		if err != nil {
			t.Fatal(err)
		}
		return append(m, j...)
	}
	loaded := func() *Env {
		return &Env{Domains: 2, Parallelism: 3, Telemetry: &telOpts, Self: new(self.Plane),
			noBurst: true, slowDrain: true}
	}

	solo := loaded()
	campaign(solo)

	plain, busy := &Env{Domains: 1, Parallelism: 1}, loaded()
	var outs [2]string
	var trials int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); outs[0], _ = campaign(plain) }()
	go func() { defer wg.Done(); outs[1], trials = campaign(busy) }()
	wg.Wait()

	for i, name := range []string{"plain", "instrumented"} {
		if outs[i] != want {
			t.Errorf("%s campaign differs from testdata/evbench.golden at %s", name, firstDiff(want, outs[i]))
		}
	}
	if n := len(plain.TelemetryRuns()); n != 0 {
		t.Errorf("plain campaign collected %d telemetry runs, want none", n)
	}
	runs := busy.TelemetryRuns()
	if len(runs) == 0 {
		t.Fatal("instrumented campaign collected no telemetry")
	}
	for _, r := range runs {
		if !strings.HasPrefix(r.Label, "hula/") {
			t.Errorf("instrumented campaign holds a foreign run %q", r.Label)
		}
	}
	if !bytes.Equal(export(busy), export(solo)) {
		t.Error("telemetry export differs from the same campaign run alone")
	}
	if got := busy.Self.TrialsTotal.Value(); got != uint64(trials) {
		t.Errorf("plane counts %d trials, the campaign ran %d", got, trials)
	}
	if got := busy.Self.TrialsDone.Value(); got != uint64(trials) {
		t.Errorf("plane counts %d finished trials, the campaign ran %d", got, trials)
	}
}

// TestNoTestOnlyExports holds every exported func and method declared in
// a non-test file under internal/ to a caller outside _test.go somewhere
// in the module, so code only its own tests call cannot pile up again.
// The census is by name: a package func counts as referenced by a
// qualified pkg.F anywhere or a bare F in its own package, a method by
// any selector .M; a func's mention of itself does not count. A test
// hook one package needs belongs in that package's export_test.go.
func TestNoTestOnlyExports(t *testing.T) {
	allowed := map[string]string{
		"repro/internal/tm.pifoHeap.Less":       "heap.Interface, called by container/heap",
		"repro/internal/tm.pifoHeap.Swap":       "heap.Interface, called by container/heap",
		"repro/internal/checkpoint.DamageSweep": "test hook shared by the core and evsim checkpoint tests",
		"repro/internal/telemetry.Digest":       "determinism witness the telemetry and bench tests compare",
		"repro/internal/events.Queue.HighWater": "FIFO peak the checkpoint carries; the core and faults tests pin storm pressure with it",
	}
	const root, module = "../..", "repro"
	type export struct {
		key, name, pos string
		method         bool
	}
	var exports []export
	qualified := map[string]bool{} // "pkgpath.F" named through an import
	local := map[string]bool{}     // "pkgpath.F" named bare inside its package
	selected := map[string]bool{}  // ".M" selected on anything but an import
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		file, _ := filepath.Rel(root, path)
		pkg := module
		if dir := filepath.Dir(file); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			n := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				n = im.Name.Name
			}
			imports[n] = p
		}
		for _, decl := range f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = fd.Name.Name
				if strings.HasPrefix(pkg, module+"/internal/") && fd.Name.IsExported() {
					e := export{key: pkg + "." + self, name: self, method: fd.Recv != nil,
						pos: fmt.Sprintf("%s:%d", file, fset.Position(fd.Pos()).Line)}
					if e.method {
						typ := fd.Recv.List[0].Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						switch g := typ.(type) {
						case *ast.IndexExpr:
							typ = g.X
						case *ast.IndexListExpr:
							typ = g.X
						}
						e.key = pkg + "." + typ.(*ast.Ident).Name + "." + self
					}
					exports = append(exports, e)
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						qualified[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					if n.Sel.Name != self {
						selected["."+n.Sel.Name] = true
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n.Name != self {
						local[pkg+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		used := selected["."+e.name]
		if !e.method {
			used = qualified[e.key] || local[e.key]
		}
		if _, ok := allowed[e.key]; ok {
			if used {
				t.Errorf("%s is allow-listed but has a non-test caller: drop it from the allow-list", e.key)
			}
			delete(allowed, e.key)
			continue
		}
		if !used {
			t.Errorf("%s: %s has no caller outside _test.go: delete it, or move it to an export_test.go if it is a test hook",
				e.pos, strings.TrimPrefix(e.key, module+"/"))
		}
	}
	for key := range allowed {
		t.Errorf("allow-list entry %s names no exported func under internal/: drop it", key)
	}
}

// TestNoPackageState keeps the harness, the self-metrics package and the
// engine (core, tm, sim, netsim) free of package-level variables — the
// harness's experiment registry and immutable tables aside — so a run's
// state stays in its Env, its Plane and the objects it built.
func TestNoPackageState(t *testing.T) {
	for _, dir := range []string{".", "../telemetry/self", "../core", "../tm", "../sim", "../netsim"} {
		var allowed map[string]bool
		if dir == "." {
			allowed = map[string]bool{"registry": true, "up4Programs": true}
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, decl := range file.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.VAR {
						continue
					}
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if !allowed[id.Name] {
								t.Errorf("%s declares package variable %s", name, id.Name)
							}
						}
					}
				}
			}
		}
	}
}
