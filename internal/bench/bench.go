// Package bench implements the experiment harness: one runnable
// experiment per table and figure of the paper (and per quantified inline
// claim), each returning a formatted result table. The root-level
// benchmarks in bench_test.go and the cmd/evbench tool both drive these
// functions; EXPERIMENTS.md records the paper-vs-measured outcomes.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Result is one experiment's output: a titled table plus free-form notes.
type Result struct {
	ID    string // experiment id, e.g. "table3" or "fig3"
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	// Size widths over header and every row, extending past the header
	// when rows are ragged (wider than Cols) so all columns still align.
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Cols)
	sep := make([]string, len(r.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Paper string // which paper artifact it reproduces
	Run   func(*Env) *Result
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment, sorted by id.
func All() []Experiment {
	var out []Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// pct formats a ratio as a percentage.
func pct(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*num/den)
}

// d formats an integer.
func d[T ~int | ~int64 | ~uint64 | ~uint32 | ~int32 | ~uint](v T) string {
	return fmt.Sprintf("%d", v)
}
