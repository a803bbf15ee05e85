package state

import "fmt"

// Aggregated implements the paper's Figure 3 state-update mechanism.
//
// The main register array holds the algorithmic state (e.g. per-queue or
// per-flow occupancy). Packet-event threads read and read-modify-write the
// main array directly — they have priority because a forwarding decision
// cannot wait. Lower-priority event threads (enqueue, dequeue, ...) do not
// touch the main array; each event class owns a separate single-ported
// aggregation bank in which its deltas accumulate. Whenever the main array
// has spare port bandwidth in a cycle (an idle cycle — the workload has
// larger-than-minimum packets, or the pipeline is clocked faster than line
// rate), pending aggregated deltas are drained into the main array.
//
// The main array's value can therefore be *stale*: it lags the true value
// by whatever is sitting in the aggregation banks. Staleness is bounded
// when drain bandwidth exceeds the event update rate (paper §4); the
// simulator measures it directly.
type Aggregated struct {
	main  *Array
	banks []bank
	cycle uint64 // the current pipeline cycle, set by Tick

	backlog      int // dirty (undrained) entries across all banks
	drained      uint64
	deferred     uint64
	dropped      uint64
	maxBacklog   int
	stalenessSum uint64 // cycles of delay accumulated over drained deltas
	stalenessMax uint64
	rrNext       int // the bank the next drain pass starts at

	// onDrain, when non-nil, observes each drained delta with its index
	// and the cycles it waited in its bank. Telemetry attaches here
	// without this package importing it.
	onDrain func(idx uint32, lag uint64)
}

// SetDrainHook installs the per-drain observer (nil removes it).
func (ag *Aggregated) SetDrainHook(fn func(idx uint32, lag uint64)) { ag.onDrain = fn }

// bank is one event class's aggregation register array. The physical
// memory is a 1R1W dual-ported SRAM: the event thread's delta uses the
// write side, one per cycle (usedAt stamps it), and the drain logic uses
// the read side, at most once per cycle because a drain pass visits each
// bank once.
type bank struct {
	delta  []int64 // accumulated pending delta per index
	since  []uint64
	dirty  []uint32 // FIFO of indices with non-zero pending delta
	head   int
	inq    []bool
	usedAt uint64 // the cycle whose write port the last delta took
}

func (b *bank) pop() (uint32, bool) {
	if b.head >= len(b.dirty) {
		return 0, false
	}
	i := b.dirty[b.head]
	b.head++
	// Compact occasionally so the slice doesn't grow without bound. When a
	// past burst left the backing array far larger than the live tail,
	// reallocate at the live size instead of shifting in place — otherwise
	// a single storm pins its peak-sized slice for the rest of the run.
	if b.head > 1024 && b.head*2 > len(b.dirty) {
		live := b.dirty[b.head:]
		if cap(b.dirty) > 4096 && cap(b.dirty) > 4*len(live) {
			b.dirty = append(make([]uint32, 0, 2*len(live)), live...)
		} else {
			b.dirty = append(b.dirty[:0], live...)
		}
		b.head = 0
	}
	return i, true
}

// NewAggregated builds the Figure 3 arrangement: a main array of the given
// size with mainPorts access ports, plus one single-ported aggregation
// bank per event class. Drain passes serve the banks round-robin from the
// first class. A register with no classes has no bank and never defers.
// Only the number of classes matters: the name and the class names label
// the call. Every caller passes mainPorts 1; the signature stays as it is
// because benchmark/ calls it.
func NewAggregated(name string, size, mainPorts int, classes ...string) *Aggregated {
	ag := &Aggregated{main: NewArray(size, mainPorts), banks: make([]bank, len(classes))}
	for i := range ag.banks {
		ag.banks[i] = bank{
			delta:  make([]int64, size),
			since:  make([]uint64, size),
			inq:    make([]bool, size),
			usedAt: ^uint64(0),
		}
	}
	return ag
}

// Main exposes the main array for packet-event access (reads and RMWs of
// the algorithmic state) and for monitor inspection via Peek.
func (ag *Aggregated) Main() *Array { return ag.main }

// Tick sets the current pipeline cycle: the cycle whose ports Defer and
// EndCycle use. Call it before a cycle's first Defer or its EndCycle; it
// touches no memory.
func (ag *Aggregated) Tick(cycle uint64) { ag.cycle = cycle }

// Defer records a delta from event class c against entry i. It consumes
// the class bank's write port for the current cycle; if another delta took
// it this cycle the delta is rejected (the caller sees the event dropped)
// — with one bank per event class and at most one event of each class per
// cycle, rejection never happens, which is exactly the paper's
// provisioning argument.
func (ag *Aggregated) Defer(c int, i uint32, delta int64) bool {
	b := &ag.banks[c]
	if b.usedAt == ag.cycle {
		ag.dropped++
		return false
	}
	b.usedAt = ag.cycle
	ag.deferred++
	idx := i % uint32(len(b.delta))
	b.delta[idx] += delta
	if !b.inq[idx] && b.delta[idx] != 0 {
		b.inq[idx] = true
		b.since[idx] = ag.cycle
		b.dirty = append(b.dirty, idx)
		ag.backlog++
		ag.maxBacklog = max(ag.maxBacklog, ag.backlog)
	}
	return true
}

// EndCycle applies pending aggregated deltas to the main array using the
// main ports the current cycle left unused, and returns the number of
// deltas drained. Call it at most once per cycle, at its end.
//
// A drain pass visits each bank once, round-robin from where the last
// pass stopped, so no event class starves another — the §4
// memory-access-scheduling choice this model makes. A visited bank
// with a backlog pops its oldest dirty index (its one drain-side read this
// cycle) and, unless the index's deltas cancelled out, folds the delta
// into the main array with one main port.
func (ag *Aggregated) EndCycle() int {
	if ag.backlog == 0 || ag.main.Free(ag.cycle) == 0 {
		return 0
	}
	n, ci, drained := len(ag.banks), ag.rrNext, 0
	for k := 0; k < n; k++ {
		b := &ag.banks[ci]
		if ci++; ci == n {
			ci = 0
		}
		idx, ok := b.pop()
		if !ok {
			continue
		}
		ag.backlog--
		ag.rrNext = ci
		b.inq[idx] = false
		d := b.delta[idx]
		b.delta[idx] = 0
		if d == 0 {
			continue // cancelled out: the main port passes to the next bank
		}
		ag.main.TryAcquire(ag.cycle)
		ag.main.vals[idx] = uint64(int64(ag.main.vals[idx]) + d)
		lag := ag.cycle - b.since[idx]
		ag.stalenessSum += lag
		ag.stalenessMax = max(ag.stalenessMax, lag)
		ag.drained++
		drained++
		if ag.onDrain != nil {
			ag.onDrain(idx, lag)
		}
		if ag.main.Free(ag.cycle) == 0 {
			break
		}
	}
	return drained
}

// True returns the exact logical value of entry i: the main register plus
// every pending aggregated delta. This is what a multi-ported
// implementation would hold; the gap between True and Main().Peek is the
// staleness the paper discusses.
func (ag *Aggregated) True(i uint32) int64 {
	idx := i % uint32(ag.main.Size())
	v := int64(ag.main.Peek(idx))
	for i := range ag.banks {
		v += ag.banks[i].delta[idx]
	}
	return v
}

// Lag returns the absolute difference between the stale main value and
// the true value of entry i, in value units.
func (ag *Aggregated) Lag(i uint32) int64 {
	idx := i % uint32(ag.main.Size())
	var d int64
	for i := range ag.banks {
		d += ag.banks[i].delta[idx]
	}
	if d < 0 {
		return -d
	}
	return d
}

// ResetAll zeroes the main array and discards all pending aggregated
// deltas (a control-plane reset: the logical value becomes zero
// everywhere).
func (ag *Aggregated) ResetAll() {
	ag.main.Reset()
	for i := range ag.banks {
		b := &ag.banks[i]
		clear(b.delta)
		clear(b.inq)
		b.dirty = b.dirty[:0]
		b.head = 0
	}
	ag.backlog = 0
}

// PendingAbs returns the total undrained magnitude across all banks:
// the sum over banks and indices of |pending delta|. Unlike Lag, opposite
// pending deltas in different banks do not cancel, so this is the measure
// of how far behind the drain process is.
func (ag *Aggregated) PendingAbs() int64 {
	var total int64
	for i := range ag.banks {
		for _, d := range ag.banks[i].delta {
			if d < 0 {
				total -= d
			} else {
				total += d
			}
		}
	}
	return total
}

// Backlog returns the total number of dirty (undrained) entries across all
// aggregation banks.
func (ag *Aggregated) Backlog() int { return ag.backlog }

// Metrics reports drain statistics: deltas deferred, drained, and dropped
// (bank port exhausted), peak backlog, and the mean and max cycles a delta
// waited before reaching the main register.
func (ag *Aggregated) Metrics() AggMetrics {
	m := AggMetrics{
		Deferred:   ag.deferred,
		Drained:    ag.drained,
		Dropped:    ag.dropped,
		MaxBacklog: ag.maxBacklog,
		MaxLag:     ag.stalenessMax,
	}
	if ag.drained > 0 {
		m.MeanLag = float64(ag.stalenessSum) / float64(ag.drained)
	}
	return m
}

// AggMetrics summarizes an Aggregated array's behaviour over a run.
type AggMetrics struct {
	Deferred   uint64  // deltas accepted into aggregation banks
	Drained    uint64  // deltas folded into the main array
	Dropped    uint64  // deltas refused (bank port budget exhausted)
	MaxBacklog int     // peak dirty-entry count
	MeanLag    float64 // mean cycles from defer to drain
	MaxLag     uint64  // max cycles from defer to drain
}

// String formats the metrics compactly for experiment tables.
func (m AggMetrics) String() string {
	return fmt.Sprintf("deferred=%d drained=%d dropped=%d maxBacklog=%d meanLag=%.1f maxLag=%d",
		m.Deferred, m.Drained, m.Dropped, m.MaxBacklog, m.MeanLag, m.MaxLag)
}
