package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestHarnessGoldenAndOracles is the whole-harness differential, run in
// process and once: every experiment on the default engine must render
// testdata/evbench.golden (the committed `go run ./cmd/evbench` output —
// regenerate it that way when a table changes on purpose), and every
// experiment re-run on the engine's reference paths — per-packet
// datapath, cycle-by-cycle drain, 2 partition domains — must render the
// same bytes. The µP4 interpreter and classic fixed-width windows need no
// toggle here: the up4 and scale tables carry their own twin rows.
func TestHarnessGoldenAndOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("two full passes over every experiment")
	}
	golden, err := os.ReadFile("testdata/evbench.golden")
	if err != nil {
		t.Fatal(err)
	}

	base := make(map[string]string)
	var out strings.Builder
	for _, e := range All() {
		base[e.ID] = e.Run(&Env{}).String()
		out.WriteString(base[e.ID])
		out.WriteByte('\n')
	}
	if got := out.String(); got != string(golden) {
		t.Errorf("default run differs from testdata/evbench.golden at %s", firstDiff(string(golden), got))
	}

	type twin struct {
		name               string
		noBurst, slowDrain bool
		domains            int
	}
	run := func(e Experiment, tw twin) string {
		return e.Run(&Env{Domains: tw.domains, noBurst: tw.noBurst, slowDrain: tw.slowDrain}).String()
	}
	for _, e := range All() {
		if run(e, twin{"all", true, true, 2}) == base[e.ID] {
			continue
		}
		// Name the twin: each toggle alone against the default run.
		for _, tw := range []twin{
			{"per-packet datapath", true, false, 1},
			{"slow drain", false, true, 1},
			{"2 domains", false, false, 2},
		} {
			if got := run(e, tw); got != base[e.ID] {
				t.Errorf("%s diverges under %s at %s", e.ID, tw.name, firstDiff(base[e.ID], got))
			}
		}
		t.Errorf("%s diverges with every oracle on", e.ID)
	}
}

// firstDiff locates the first line where two differing renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of output>"
	}
	return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, line(w), line(g))
}
