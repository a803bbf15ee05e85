package pisa

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/state"
)

// SharedRegister is the paper's new extern type: a register array that
// event-processing threads share with the packet-processing threads
// (paper §2, "shared_register").
//
// Two implementations mirror the paper's §4 design space:
//
//   - Aggregated (high line rate): packet-event threads own the main
//     array's single port — all their accesses within one slot form one
//     stateful-ALU transaction. Each deferred event kind (enqueue,
//     dequeue, ...) accumulates deltas in its own single-ported
//     aggregation bank, drained into the main array on idle cycles
//     (Figure 3). Reads see the bounded-stale main value.
//
//   - MultiPort (low line rate, e.g. a WiFi AP): one port per thread on a
//     multi-ported memory; every access is direct and reads are exact.
type SharedRegister struct {
	name string
	size int

	agg *state.Aggregated // aggregated mode
	arr *state.Array      // multiport mode

	// classOf maps a deferred event kind to its aggregation bank, or -1
	// for direct (packet-thread) access.
	classOf [events.NumKinds]int

	// heldCycle[k] is the last cycle on which kind k held a direct
	// port; further direct accesses by the same kind in the same cycle
	// ride the same memory transaction.
	heldCycle [events.NumKinds]uint64

	conflicts uint64 // direct accesses denied a port (over-subscription)
	staleRead uint64 // reads served from the stale main value
}

// NewAggregatedRegister builds a shared register in aggregated mode. The
// deferred kinds each get an aggregation bank (in the order given);
// every other kind accesses the main array directly.
func NewAggregatedRegister(name string, size int, deferred ...events.Kind) *SharedRegister {
	r := &SharedRegister{name: name, size: size}
	for i := range r.classOf {
		r.classOf[i] = -1
	}
	classes := make([]string, len(deferred))
	for i, k := range deferred {
		classes[i] = k.String()
		r.classOf[k] = i
	}
	if len(classes) == 0 {
		classes = []string{"none"} // state.NewAggregated requires one bank
	}
	r.agg = state.NewAggregated(name, size, 1, classes...)
	for i := range r.heldCycle {
		r.heldCycle[i] = ^uint64(0)
	}
	return r
}

// NewMultiPortRegister builds a shared register in multi-ported mode with
// the given number of ports (one per concurrent thread).
func NewMultiPortRegister(name string, size, ports int) *SharedRegister {
	r := &SharedRegister{name: name, size: size, arr: state.NewArray(name, size, ports)}
	for i := range r.classOf {
		r.classOf[i] = -1
	}
	for i := range r.heldCycle {
		r.heldCycle[i] = ^uint64(0)
	}
	return r
}

// Name returns the register's name.
func (r *SharedRegister) Name() string { return r.name }

// Size returns the number of entries.
func (r *SharedRegister) Size() int { return r.size }

func (r *SharedRegister) mainArr() *state.Array {
	if r.agg != nil {
		return r.agg.Main()
	}
	return r.arr
}

// acquire obtains the calling kind's memory transaction for this cycle,
// consuming a port on first use. It returns false when the memory is
// over-subscribed this cycle.
func (r *SharedRegister) acquire(ctx *Context) bool {
	k := ctx.Ev.Kind
	if r.heldCycle[k] == ctx.Cycle {
		return true
	}
	a := r.mainArr()
	a.Tick(ctx.Cycle)
	if !a.TryAcquire() {
		r.conflicts++
		return false
	}
	r.heldCycle[k] = ctx.Cycle
	return true
}

// Read returns the register value visible to the calling thread. Packet
// threads (and all threads in multiport mode) read through their memory
// transaction; deferred event threads see the stale main value without a
// port (they own only their aggregation bank).
func (r *SharedRegister) Read(ctx *Context, idx uint32) uint64 {
	if r.agg != nil && r.classOf[ctx.Ev.Kind] >= 0 {
		r.staleRead++
		return r.mainArr().Peek(idx % uint32(r.size))
	}
	if !r.acquire(ctx) {
		r.staleRead++
	}
	return r.mainArr().Peek(idx % uint32(r.size))
}

// Add applies a delta to entry idx. Deferred kinds aggregate the delta in
// their bank; direct kinds fold it into their transaction.
func (r *SharedRegister) Add(ctx *Context, idx uint32, delta int64) {
	if r.agg != nil {
		if c := r.classOf[ctx.Ev.Kind]; c >= 0 {
			r.agg.Tick(ctx.Cycle)
			if !r.agg.Defer(c, idx, delta) {
				// Bank port exhausted: the update is lost, which is what
				// the hardware would do; it is counted in the metrics.
				return
			}
			return
		}
	}
	if !r.acquire(ctx) {
		return
	}
	a := r.mainArr()
	i := idx % uint32(r.size)
	a.Poke(i, uint64(int64(a.Peek(i))+delta))
}

// Write stores an absolute value. Only direct threads may write
// absolutely; a deferred thread's absolute write is meaningless against
// pending deltas and panics to catch program bugs.
func (r *SharedRegister) Write(ctx *Context, idx uint32, v uint64) {
	if r.agg != nil && r.classOf[ctx.Ev.Kind] >= 0 {
		panic(fmt.Sprintf("pisa: deferred event kind %v may not Write register %s; use Add",
			ctx.Ev.Kind, r.name))
	}
	if !r.acquire(ctx) {
		return
	}
	r.mainArr().Poke(idx%uint32(r.size), v)
}

// True returns the exact logical value (main plus pending deltas): what a
// multi-ported memory would hold. Monitors and experiments use it to
// quantify staleness; data-plane programs cannot call it.
func (r *SharedRegister) True(idx uint32) int64 {
	if r.agg != nil {
		return r.agg.True(idx)
	}
	return int64(r.arr.Peek(idx % uint32(r.size)))
}

// Stale returns the data-plane-visible value without any port accounting
// (for monitors).
func (r *SharedRegister) Stale(idx uint32) uint64 {
	return r.mainArr().Peek(idx % uint32(r.size))
}

// SetDrainHook installs an observer called for each aggregated delta as
// it drains into the main array, with the entry index and the cycles it
// waited (the paper's per-drain staleness). A multi-ported register never
// defers, so the hook is a no-op there.
func (r *SharedRegister) SetDrainHook(fn func(idx uint32, lag uint64)) {
	if r.agg != nil {
		r.agg.SetDrainHook(fn)
	}
}

// Reset zeroes the register from the control plane, discarding any
// pending aggregated deltas (the logical value becomes zero everywhere).
func (r *SharedRegister) Reset() {
	if r.agg != nil {
		r.agg.ResetAll()
		return
	}
	r.arr.Reset()
}

// Tick advances the register's memories to the given cycle. The switch
// core calls this once per pipeline cycle before executing the slot.
func (r *SharedRegister) Tick(cycle uint64) {
	if r.agg != nil {
		r.agg.Tick(cycle)
	} else {
		r.arr.Tick(cycle)
	}
}

// EndCycle drains pending aggregated deltas using idle bandwidth. The
// switch core calls this once per pipeline cycle after the slot.
func (r *SharedRegister) EndCycle() {
	if r.agg != nil {
		r.agg.EndCycle()
	}
}

// Backlog returns the number of register entries with pending undrained
// deltas (always zero in multiport mode).
func (r *SharedRegister) Backlog() int {
	if r.agg != nil {
		return r.agg.Backlog()
	}
	return 0
}

// PendingAbs returns the undrained aggregation magnitude (zero in
// multiport mode): the drain process's total debt in value units.
func (r *SharedRegister) PendingAbs() int64 {
	if r.agg != nil {
		return r.agg.PendingAbs()
	}
	return 0
}

// Metrics returns aggregation metrics (zero value in multiport mode) and
// the direct-access conflict count.
func (r *SharedRegister) Metrics() (state.AggMetrics, uint64) {
	if r.agg != nil {
		return r.agg.Metrics(), r.conflicts
	}
	return state.AggMetrics{}, r.conflicts
}

// Counter is a statistics extern: per-index packet and byte counts. Real
// targets keep counters in dedicated statistics memory, so no port
// accounting applies.
type Counter struct {
	name    string
	packets []uint64
	bytes   []uint64
}

// NewCounter builds a counter array.
func NewCounter(name string, size int) *Counter {
	return &Counter{name: name, packets: make([]uint64, size), bytes: make([]uint64, size)}
}

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name }

// Count records one packet of n bytes against entry idx.
func (c *Counter) Count(idx uint32, n int) {
	i := idx % uint32(len(c.packets))
	c.packets[i]++
	c.bytes[i] += uint64(n)
}

// Value returns the packet and byte counts of entry idx.
func (c *Counter) Value(idx uint32) (pkts, bytes uint64) {
	i := idx % uint32(len(c.packets))
	return c.packets[i], c.bytes[i]
}

// Hash is the hash extern: a keyed mixing hash over field values, used by
// programs to compute flow indices (the paper's `hash(hdr.ip.src ++
// hdr.ip.dst, flowID)`).
func Hash(seed uint64, fields ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, f := range fields {
		h ^= f
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}
