// Package telemetry is the simulator's observability subsystem: a
// metrics registry (named counters, gauges, and fixed-boundary log2
// histograms), an event-lifecycle tracer recording bounded per-stream
// ring buffers, and deterministic exporters (a JSONL trace, the only trace
// format written to disk, and a metrics JSON document).
//
// Everything is driven by simulated time, never the wall clock, and every
// instrument is single-writer: a counter, gauge, histogram, or trace
// stream is owned by exactly one simulation domain (the switch or
// register it instruments), so a partitioned run (sim.Partition) updates
// telemetry concurrently without locks and still exports byte-identical
// output at any domain count. The hot-path operations — Counter.Add,
// Gauge.Set, Histogram.Observe, Stream.Emit — allocate nothing; rings and
// bucket arrays are sized at construction.
//
// Nothing reads an instrument while its writer runs, so there is no
// atomic or locked variant of any of them. A reader gets either a
// quiescent collector (the post-run exports) or what the simulating
// goroutine itself hands out between two scheduler runs: a
// Registry.Snapshot, or the records StreamSink.Flush drains. The
// wall-clock self-metrics (package self) are the atomic domain; they
// share only the histogram bucket layout with this one.
package telemetry

import (
	"math/bits"
	"sort"

	"repro/internal/telemetry/self"
)

// Counter is a monotonically increasing metric. It is owned by a single
// simulation domain; Add is a plain field increment.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time value (an occupancy, a depth). Set overwrites;
// the exported value is the last one set.
type Gauge struct{ v int64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-boundary log2 histogram over uint64 samples, in
// the one bucket layout both metric domains share (self.HistBuckets).
// Observe is an array increment — no allocation, no search.
type Histogram struct {
	buckets [self.HistBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Metric is one instrument's exported state.
type Metric struct {
	Name string `json:"name"`
	Type string `json:"type"` // "counter" | "gauge" | "histogram"
	// Value is the counter or gauge value (absent for histograms).
	Value int64 `json:"value,omitempty"`
	// Histogram fields (absent for counters and gauges).
	Count   uint64            `json:"count,omitempty"`
	Sum     uint64            `json:"sum,omitempty"`
	Max     uint64            `json:"max,omitempty"`
	Buckets []self.HistBucket `json:"buckets,omitempty"`
}

// Registry holds named instruments. Create every instrument during
// single-threaded setup; during a run the registry is read-only (probes
// hold direct pointers) so concurrent domains never touch the maps.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every instrument's state sorted by name (type breaks
// the tie), so two registries built by the same run always export
// byte-identical metric lists regardless of map iteration order. Call it
// on the goroutine that runs the simulation, or after the run: the
// instruments are plain fields with one writer.
func (r *Registry) Snapshot() []Metric {
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Value: int64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		bs, _ := self.Buckets(h.Bucket)
		out = append(out, Metric{Name: name, Type: "histogram", Count: h.Count(), Sum: h.Sum(), Max: h.Max(), Buckets: bs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Type < out[j].Type
	})
	return out
}
