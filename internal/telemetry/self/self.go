// Package self is the engine's own observability: wall-clock-domain
// self-metrics measuring how the simulator runs, never what it simulates.
// It is the second metric domain next to the deterministic sim-time
// registry in internal/telemetry, and the two never mix: deterministic
// metrics are single-writer, driven by simulated time, and part of the
// exported identity of a run; self-metrics are atomic, driven by the wall
// clock and the host scheduler, and explicitly excluded from every
// deterministic export and digest. Enabling or disabling them must not
// change a single byte of simulation output (DESIGN.md §15).
//
// The package is a leaf (stdlib only) so every layer of the engine —
// internal/sim, internal/core, internal/packet, internal/netsim — can
// record into it without import cycles. The instruments are the fields
// of one Plane, which a run owns and hands to its schedulers
// (sim.Scheduler.SetSelf): a nil plane is "off", a new one is "reset",
// and two runs in one process never share a counter. All
// instruments are updated with atomic operations; the hot path allocates
// nothing (TestSelfHotPathZeroAlloc) and is gated behind one nil test, so
// a run without the observability plane pays a predictable branch and
// nothing else.
//
// Writers follow two disciplines to keep the overhead honest:
//
//   - Per-event costs are batched: the scheduler counts dispatches and
//     lane arms in plain local fields and publishes deltas at run exit
//     (Scheduler.Run/RunBefore return), not per event.
//   - Per-occurrence costs stay on naturally coarse paths: a stall
//     sample per partition window, a latency sample per checkpoint write.
package self

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Safe for any
// number of concurrent writers and readers.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic point-in-time value.
type Gauge struct{ v atomic.Int64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HighWater tracks a current level and its maximum. Add moves the level;
// the high-water mark ratchets up under a CAS loop, so concurrent writers
// never lose a peak.
type HighWater struct {
	cur atomic.Int64
	hi  atomic.Int64
}

// Add moves the current level by d (negative to release) and updates the
// high-water mark.
func (w *HighWater) Add(d int64) {
	cur := w.cur.Add(d)
	for {
		hi := w.hi.Load()
		if cur <= hi || w.hi.CompareAndSwap(hi, cur) {
			return
		}
	}
}

// Cur returns the current level.
func (w *HighWater) Cur() int64 { return w.cur.Load() }

// High returns the high-water mark.
func (w *HighWater) High() int64 { return w.hi.Load() }

// HistBuckets is the number of fixed log2 histogram buckets, the one
// layout both metric domains use (this package's Hist and the sim-time
// telemetry.Histogram): bucket 0 holds the value 0 and bucket i (1..64)
// holds values v with 2^(i-1) <= v < 2^i, i.e. bits.Len64(v) == i.
const HistBuckets = 65

// Hist is an atomic fixed-boundary log2 histogram. Observe performs four
// atomic adds plus a CAS loop for the max — no allocation, no lock.
type Hist struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Hist) Sum() uint64 { return h.sum.Load() }

// Max returns the largest sample observed.
func (h *Hist) Max() uint64 { return h.max.Load() }

// Bucket returns the count in bucket i.
func (h *Hist) Bucket(i int) uint64 { return h.buckets[i].Load() }

// BucketLow returns the smallest value falling in bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the largest value falling in bucket i.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<i - 1
}

// Buckets lists the non-empty buckets of a log2 histogram whose bucket i
// holds count(i) samples, ascending, and returns their total.
func Buckets(count func(i int) uint64) ([]HistBucket, uint64) {
	var out []HistBucket
	var total uint64
	for i := 0; i < HistBuckets; i++ {
		if n := count(i); n != 0 {
			out = append(out, HistBucket{Low: BucketLow(i), High: BucketHigh(i), Count: n})
			total += n
		}
	}
	return out, total
}

// MaxDomains bounds the per-domain instrument arrays. Domains beyond it
// fold into a shared overflow slot rather than being dropped.
const MaxDomains = 64

// Plane is one run's self-metric set, fixed at compile time: every
// instrument is a field, so hot paths pay no lookups. The zero Plane is
// ready to use; writers hold a *Plane and treat nil as "off".
type Plane struct {
	// SchedDispatch counts events executed across all schedulers
	// (published as batched deltas at Run/RunBefore exit).
	SchedDispatch Counter
	// SchedLaneArms counts Lane.ArmAt calls: cycle-lane arms and every
	// ticker's first arm and re-arms (Scheduler.Every runs on a lane).
	// SchedAuxArms counts exact-coordinate arms (Lane.ArmExact — the
	// switch conveyor's aux lane). Both are published at run exit with
	// SchedDispatch.
	SchedLaneArms Counter
	SchedAuxArms  Counter

	// PoolInUse tracks outstanding packets across every packet.Pool of
	// the run: current level and high-water mark.
	PoolInUse HighWater

	// CheckpointWriteNS is the wall-clock latency of checkpoint file
	// writes; CheckpointBytes the bytes written; CheckpointLastUnixNS the
	// wall instant of the most recent successful write.
	CheckpointWriteNS    Hist
	CheckpointBytes      Counter
	CheckpointLastUnixNS Gauge

	// MailFrames counts cross-domain frames handed over at partition
	// barriers.
	MailFrames Counter

	// PartBarriers counts partition synchronization barriers (one per
	// coordinator round); PartBatchedWindows counts the windows whose
	// span exceeded one conservative lookahead — the adaptive batching
	// actually engaging. Together with the per-domain window counters
	// they measure barrier pressure: barriers / simulated time is the
	// number the batching work exists to push down.
	PartBarriers       Counter
	PartBatchedWindows Counter

	// TrialsTotal/TrialsDone track experiment campaign progress
	// (bench.RunParallel).
	TrialsTotal Counter
	TrialsDone  Counter

	// StreamFlushes/StreamRecords describe the streaming telemetry
	// exporter: flush passes and trace records written.
	StreamFlushes Counter
	StreamRecords Counter

	// Scrapes counts /metrics HTTP scrapes served.
	Scrapes Counter

	// SimNowPS is the most recently published simulated instant
	// (picoseconds): updated at partition windows, run exits, and
	// checkpoint writes — a progress indicator, not a live clock.
	SimNowPS Gauge

	// domains is the domain count of the most recent partitioned run.
	domains Gauge

	domainWindows [MaxDomains + 1]Counter // [MaxDomains] = overflow slot
	domainStallNS [MaxDomains + 1]Counter
}

// SetDomains records the domain count of the run in progress.
func (p *Plane) SetDomains(n int) { p.domains.Set(int64(n)) }

// Domains returns the recorded domain count.
func (p *Plane) Domains() int { return int(p.domains.Value()) }

// domainSlot clamps a domain index into the instrument arrays.
func domainSlot(d int) int {
	if d < 0 || d >= MaxDomains {
		return MaxDomains
	}
	return d
}

// DomainWindows returns domain d's conservative-window counter.
func (p *Plane) DomainWindows(d int) *Counter { return &p.domainWindows[domainSlot(d)] }

// DomainStallNS returns domain d's barrier-stall counter: wall-clock
// nanoseconds the domain spent waiting on the others — a worker between
// one window handed to it and the next, domain 0 (which the partition's
// coordinator runs) for the workers to finish each round.
func (p *Plane) DomainStallNS(d int) *Counter { return &p.domainStallNS[domainSlot(d)] }

// Sample is one instrument's state in a Snapshot.
type Sample struct {
	Name string
	Kind string // "counter" | "gauge" | "histogram"
	// Value carries the counter total or gauge value.
	Value int64
	// Histogram fields.
	Count, Sum, Max uint64
	Buckets         []HistBucket // non-empty buckets, ascending
}

// HistBucket is one non-empty histogram bucket: Low and High are the
// bucket's inclusive bounds, Count the raw (non-cumulative) count. The
// sim-time metrics document writes it under the JSON tags below.
type HistBucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// Snapshot returns every instrument's state in a fixed, deterministic
// order. Per-domain instruments appear for domains < SetDomains' last
// value plus any slot with a non-zero count, so idle slots stay out of
// scrapes. Reads are atomic; values observed mid-update are each
// individually consistent but the set is not a single atomic cut — this
// is observability, not accounting.
func (p *Plane) Snapshot() []Sample {
	counter := func(name string, c *Counter) Sample {
		return Sample{Name: name, Kind: "counter", Value: int64(c.Value())}
	}
	gauge := func(name string, g *Gauge) Sample {
		return Sample{Name: name, Kind: "gauge", Value: g.Value()}
	}
	hist := func(name string, h *Hist) Sample {
		// Count is derived from the buckets read, so every snapshot keeps
		// the bucket-sum == count invariant even while writers race ahead.
		bs, total := Buckets(h.Bucket)
		return Sample{Name: name, Kind: "histogram", Count: total, Sum: h.Sum(), Max: h.Max(), Buckets: bs}
	}
	out := []Sample{
		counter("self.checkpoint.bytes", &p.CheckpointBytes),
		gauge("self.checkpoint.last_unix_ns", &p.CheckpointLastUnixNS),
		hist("self.checkpoint.write_ns", &p.CheckpointWriteNS),
		gauge("self.domains", &p.domains),
		counter("self.http.scrapes", &p.Scrapes),
		counter("self.mail.frames", &p.MailFrames),
		counter("self.part.barriers", &p.PartBarriers),
		counter("self.part.batched_windows", &p.PartBatchedWindows),
		{Name: "self.pool.high_water", Kind: "gauge", Value: p.PoolInUse.High()},
		{Name: "self.pool.in_use", Kind: "gauge", Value: p.PoolInUse.Cur()},
		counter("self.sched.aux_arms", &p.SchedAuxArms),
		counter("self.sched.dispatch", &p.SchedDispatch),
		counter("self.sched.lane_arms", &p.SchedLaneArms),
		gauge("self.sim.now_ps", &p.SimNowPS),
		counter("self.stream.flushes", &p.StreamFlushes),
		counter("self.stream.records", &p.StreamRecords),
		counter("self.trials.done", &p.TrialsDone),
		counter("self.trials.total", &p.TrialsTotal),
	}
	nd := p.Domains()
	if nd > MaxDomains {
		nd = MaxDomains + 1
	}
	for d := 0; d <= MaxDomains; d++ {
		w, st := p.domainWindows[d].Value(), p.domainStallNS[d].Value()
		if d >= nd && w == 0 && st == 0 {
			continue
		}
		name := fmt.Sprintf("self.domain%d", d)
		if d == MaxDomains {
			name = "self.domain_overflow"
		}
		out = append(out,
			Sample{Name: name + ".barrier_stall_ns", Kind: "counter", Value: int64(st)},
			Sample{Name: name + ".windows", Kind: "counter", Value: int64(w)},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
