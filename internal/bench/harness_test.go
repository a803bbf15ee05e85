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
// experiment re-run on 2 partition domains must render the same bytes.
// The µP4 interpreter and classic fixed-width windows need no toggle
// here: the up4 and scale tables carry their own twin rows. The switch
// itself is held to the paper by core's reference model
// (TestRefModelMatchesCore), not by a second datapath.
func TestHarnessGoldenAndOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("two full passes over every experiment")
	}
	golden, err := os.ReadFile("testdata/evbench.golden")
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	for _, e := range All() {
		base := e.Run(&Env{}).String()
		out.WriteString(base)
		out.WriteByte('\n')
		if got := e.Run(&Env{Domains: 2}).String(); got != base {
			t.Errorf("%s diverges under 2 domains at %s", e.ID, firstDiff(base, got))
		}
	}
	if got := out.String(); got != string(golden) {
		t.Errorf("default run differs from testdata/evbench.golden at %s", firstDiff(string(golden), got))
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
