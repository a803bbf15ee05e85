package main

import (
	"math/bits"
	"sort"
	"time"
)

// A tracer aggregates spans instead of storing them: the traced trial of
// switch_linerate would otherwise hold ~30M records. One spanRec holds the
// count, total and a log2 histogram for one (name, parent) pair at one call
// site; records of the same pair merge when the trace is written.
//
// Each call site owns its record, so sites that run on different partition
// domains (one goroutine per domain) never share one. Records are created
// while the scenario is built, which is single-threaded.
type tracer struct {
	base time.Time
	recs []*spanRec
}

type spanRec struct {
	Name    string     `json:"name"`
	Parent  string     `json:"parent"`
	Count   uint64     `json:"count"`
	TotalNs int64      `json:"total_ns"`
	Hist    [65]uint64 `json:"log2_hist"` // bucket i counts spans of [2^(i-1), 2^i) ns; bucket 0 is 0 ns
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer's clock: monotonic nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// rec registers a new record for a call site.
func (t *tracer) rec(name, parent string) *spanRec {
	r := &spanRec{Name: name, Parent: parent}
	t.recs = append(t.recs, r)
	return r
}

func (r *spanRec) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	r.Count++
	r.TotalNs += ns
	r.Hist[bits.Len64(uint64(ns))]++
}

// merged folds the per-site records by (name, parent), sorted for a stable file.
func (t *tracer) merged() []*spanRec {
	byKey := map[[2]string]*spanRec{}
	var out []*spanRec
	for _, r := range t.recs {
		k := [2]string{r.Name, r.Parent}
		m := byKey[k]
		if m == nil {
			m = &spanRec{Name: r.Name, Parent: r.Parent}
			byKey[k] = m
			out = append(out, m)
		}
		m.Count += r.Count
		m.TotalNs += r.TotalNs
		for i, c := range r.Hist {
			m.Hist[i] += c
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanSummary is one merged span with its self time: total minus its
// children minus one calibrated clock pair per child span recorded inside
// it, floored at zero (a parent whose only child covers the same interval
// would otherwise come out one clock pair per span below it).
type spanSummary struct {
	*spanRec
	SelfNs int64 `json:"self_ns"`
}

func summarize(spans []*spanRec, clockNs float64) []spanSummary {
	out := make([]spanSummary, len(spans))
	for i, s := range spans {
		self := float64(s.TotalNs)
		for _, c := range spans {
			if c.Parent == s.Name {
				self -= float64(c.TotalNs) + float64(c.Count)*clockNs
			}
		}
		out[i] = spanSummary{spanRec: s, SelfNs: int64(max(0, self))}
	}
	return out
}

// total returns the merged total and count of every span with this name.
func spanTotal(spans []*spanRec, name string) (ns int64, count uint64) {
	for _, s := range spans {
		if s.Name == name {
			ns += s.TotalNs
			count += s.Count
		}
	}
	return ns, count
}

// traceFile is what a traced run leaves in benchmark/out/trace_<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Host     hostInfo           `json:"host"`
	ClockNs  float64            `json:"clock_ns"`
	WallS    float64            `json:"traced_wall_s"`
	Spans    []spanSummary      `json:"spans"`
	Ledger   []ledgerTerm       `json:"ledger"`
	Metrics  map[string]float64 `json:"per_layer"`
}
