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
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Live mode: a collector built with Options.Live switches every
// instrument from plain single-writer fields to atomic operations and
// guards registry/stream bookkeeping with mutexes, so a wall-clock
// observer (the streaming sink, the HTTP introspection endpoint) can
// read mid-run without racing the simulation domains. The branch costs
// one predictable bool test per operation and the atomic path performs
// the same arithmetic, so final exports are byte-identical with live
// mode on or off — the observability plane observes, never perturbs.
// The hot path stays allocation-free in both modes.

// Counter is a monotonically increasing metric. It is owned by a single
// simulation domain; Add is a plain field increment (an atomic add in
// live mode).
type Counter struct {
	v    uint64
	live bool
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c.live {
		atomic.AddUint64(&c.v, n)
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.live {
		return atomic.LoadUint64(&c.v)
	}
	return c.v
}

// Gauge is a point-in-time value (an occupancy, a depth). Set overwrites;
// the exported value is the last one set.
type Gauge struct {
	v    int64
	live bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g.live {
		atomic.StoreInt64(&g.v, v)
		return
	}
	g.v = v
}

// Value returns the last value set.
func (g *Gauge) Value() int64 {
	if g.live {
		return atomic.LoadInt64(&g.v)
	}
	return g.v
}

// HistBuckets is the number of fixed log2 histogram buckets: bucket 0
// holds the value 0 and bucket i (1..64) holds values v with
// 2^(i-1) <= v < 2^i, i.e. bits.Len64(v) == i.
const HistBuckets = 65

// Histogram is a fixed-boundary log2 histogram over uint64 samples.
// Observe is an array increment — no allocation, no search.
type Histogram struct {
	buckets [HistBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
	live    bool
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h.live {
		atomic.AddUint64(&h.buckets[bits.Len64(v)], 1)
		atomic.AddUint64(&h.count, 1)
		atomic.AddUint64(&h.sum, v)
		for {
			cur := atomic.LoadUint64(&h.max)
			if v <= cur || atomic.CompareAndSwapUint64(&h.max, cur, v) {
				return
			}
		}
	}
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h.live {
		return atomic.LoadUint64(&h.count)
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 {
	if h.live {
		return atomic.LoadUint64(&h.sum)
	}
	return h.sum
}

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() uint64 {
	if h.live {
		return atomic.LoadUint64(&h.max)
	}
	return h.max
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if h.live {
		return atomic.LoadUint64(&h.buckets[i])
	}
	return h.buckets[i]
}

// BucketLow returns the smallest value that falls in bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the largest value that falls in bucket i.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<i - 1
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// Metric is one instrument's exported state.
type Metric struct {
	Name string `json:"name"`
	Type string `json:"type"` // "counter" | "gauge" | "histogram"
	// Value is the counter or gauge value (absent for histograms).
	Value int64 `json:"value,omitempty"`
	// Histogram fields (absent for counters and gauges).
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry holds named instruments. Create every instrument during
// single-threaded setup; during a run the registry is read-only (probes
// hold direct pointers) so concurrent domains never touch the maps.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// live guards the maps with mu and marks every instrument live, so
	// wall-clock observers can create/read instruments concurrently with
	// the run. Set via SetLive before the run starts.
	live bool
	mu   sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetLive switches the registry (and every instrument it already holds
// or will create) to live mode. Call during single-threaded setup.
func (r *Registry) SetLive() {
	r.live = true
	for _, c := range r.counters {
		c.live = true
	}
	for _, g := range r.gauges {
		g.live = true
	}
	for _, h := range r.hists {
		h.live = true
	}
}

// Live reports whether the registry is in live mode.
func (r *Registry) Live() bool { return r.live }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r.live {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{live: r.live}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r.live {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{live: r.live}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r.live {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{live: r.live}
	r.hists[name] = h
	return h
}

// Snapshot returns every instrument's state sorted by name (type breaks
// the tie), so two registries built by the same run always export
// byte-identical metric lists regardless of map iteration order.
//
// In live mode a snapshot may be taken mid-run: each field is read
// atomically, and a histogram's Count is derived as the sum of its
// bucket reads so the count-equals-bucket-sum invariant holds even when
// the snapshot lands between an Observe's bucket and count increments.
// At quiescence (final export) the derived count equals the stored one,
// so live mode never changes exported bytes.
func (r *Registry) Snapshot() []Metric {
	if r.live {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Value: int64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Type: "histogram", Sum: h.Sum(), Max: h.Max()}
		for i := 0; i < HistBuckets; i++ {
			if n := h.Bucket(i); n != 0 {
				m.Buckets = append(m.Buckets, Bucket{
					Low: BucketLow(i), High: BucketHigh(i), Count: n,
				})
				m.Count += n
			}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Type < out[j].Type
	})
	return out
}
