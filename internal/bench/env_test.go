package bench

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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
		return append(m, telemetry.EncodeJSONL(runs)...)
	}
	loaded := func() *Env {
		return &Env{Domains: 2, Parallelism: 3, Telemetry: &telOpts, Self: new(self.Plane)}
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
