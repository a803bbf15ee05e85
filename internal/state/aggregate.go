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
	banks []*bank

	// drainBudget limits how many pending deltas may drain per idle main
	// port per cycle; 1 models one extra RMW per spare port.
	drained       uint64
	deferred      uint64
	dropped       uint64
	maxBacklog    int
	stalenessSum  uint64 // cycles of delay accumulated over drained deltas
	stalenessMax  uint64
	drainPriority []int // bank indices in drain order
	rrNext        int   // round-robin pointer over drainPriority

	// onDrain, when non-nil, observes each drained delta with its index
	// and the cycles it waited in its bank. Telemetry attaches here
	// without this package importing it.
	onDrain func(idx uint32, lag uint64)
}

// SetDrainHook installs the per-drain observer (nil removes it).
func (ag *Aggregated) SetDrainHook(fn func(idx uint32, lag uint64)) { ag.onDrain = fn }

// bank is one event class's aggregation register array. The physical
// memory is a 1R1W dual-ported SRAM: the event thread's read-modify-write
// uses the write side (tracked by arr's single port), and the drain logic
// uses the read side, limited to one drain per cycle (lastDrain).
type bank struct {
	name      string
	arr       *Array  // event-side port accounting
	delta     []int64 // accumulated pending delta per index
	since     []uint64
	dirty     []uint32 // FIFO of indices with non-zero pending delta
	head      int
	inq       []bool
	lastDrain uint64
}

func newBank(name string, size int) *bank {
	return &bank{
		name:      name,
		arr:       NewArray(name, size, 1),
		delta:     make([]int64, size),
		since:     make([]uint64, size),
		inq:       make([]bool, size),
		lastDrain: ^uint64(0),
	}
}

func (b *bank) backlog() int { return len(b.dirty) - b.head }

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
// bank per named event class. Classes are drained in the order given
// (earlier classes have higher drain priority).
func NewAggregated(name string, size, mainPorts int, classes ...string) *Aggregated {
	if len(classes) == 0 {
		panic("state: NewAggregated needs at least one event class")
	}
	ag := &Aggregated{main: NewArray(name, size, mainPorts)}
	for i, c := range classes {
		ag.banks = append(ag.banks, newBank(name+"."+c, size))
		ag.drainPriority = append(ag.drainPriority, i)
	}
	return ag
}

// Main exposes the main array for packet-event access (reads and RMWs of
// the algorithmic state) and for monitor inspection via Peek.
func (ag *Aggregated) Main() *Array { return ag.main }

// Defer records a delta from event class c against entry i. It consumes
// one port on the class's aggregation bank; if that bank's port budget for
// this cycle is exhausted the delta is rejected (the caller sees the event
// dropped) — with one bank per event class and at most one event of each
// class per cycle, rejection never happens, which is exactly the paper's
// provisioning argument.
func (ag *Aggregated) Defer(c int, i uint32, delta int64) bool {
	b := ag.banks[c]
	idx := i % uint32(len(b.delta))
	if _, ok := b.arr.TryRMW(idx, func(v uint64) uint64 { return v + 1 }); !ok {
		ag.dropped++
		return false
	}
	ag.deferred++
	b.delta[idx] += delta
	if !b.inq[idx] && b.delta[idx] != 0 {
		b.inq[idx] = true
		b.since[idx] = ag.mainCycle()
		b.dirty = append(b.dirty, idx)
	}
	if bl := ag.Backlog(); bl > ag.maxBacklog {
		ag.maxBacklog = bl
	}
	return true
}

func (ag *Aggregated) mainCycle() uint64 { return ag.main.cycle }

// Tick advances all memories to the given cycle. Call it at the *start* of
// each pipeline cycle, before any accesses. Drain of pending deltas into
// the main array happens inside EndCycle, which uses the ports left over
// after this cycle's packet-event accesses.
func (ag *Aggregated) Tick(cycle uint64) {
	ag.main.Tick(cycle)
	for _, b := range ag.banks {
		b.arr.Tick(cycle)
	}
}

// EndCycle applies pending aggregated deltas to the main array using any
// port bandwidth left unused this cycle. Call it at the end of each
// pipeline cycle. It returns the number of deltas drained.
func (ag *Aggregated) EndCycle() int {
	n := 0
	for ag.main.Free() > 0 {
		if !ag.drainOne() {
			break
		}
		n++
	}
	return n
}

// drainOne pops one bank's oldest dirty index and folds its pending delta
// into the main array. Applying a delta costs one main-array port and the
// bank's drain-side read port (one drain per bank per cycle); banks are
// served round-robin so no event class starves another — the §4
// memory-access-scheduling choice this prototype makes.
func (ag *Aggregated) drainOne() bool {
	n := len(ag.drainPriority)
	start := ag.rrNext
	for k := 0; k < n; k++ {
		ci := ag.drainPriority[(start+k)%n]
		b := ag.banks[ci]
		if b.backlog() == 0 || b.lastDrain == ag.mainCycle() {
			continue
		}
		idx, ok := b.pop()
		if !ok {
			continue
		}
		b.inq[idx] = false
		d := b.delta[idx]
		b.delta[idx] = 0
		b.lastDrain = ag.mainCycle()
		ag.rrNext = (start + k + 1) % n
		if d == 0 {
			continue // cancelled out: the main port passes to the next bank
		}
		ag.main.TryRMW(idx, func(v uint64) uint64 {
			return uint64(int64(v) + d)
		})
		lag := ag.mainCycle() - b.since[idx]
		ag.stalenessSum += lag
		if lag > ag.stalenessMax {
			ag.stalenessMax = lag
		}
		ag.drained++
		if ag.onDrain != nil {
			ag.onDrain(idx, lag)
		}
		return true
	}
	return false
}

// True returns the exact logical value of entry i: the main register plus
// every pending aggregated delta. This is what a multi-ported
// implementation would hold; the gap between True and Main().Peek is the
// staleness the paper discusses.
func (ag *Aggregated) True(i uint32) int64 {
	idx := i % uint32(ag.main.Size())
	v := int64(ag.main.Peek(idx))
	for _, b := range ag.banks {
		v += b.delta[idx]
	}
	return v
}

// Lag returns the absolute difference between the stale main value and
// the true value of entry i, in value units.
func (ag *Aggregated) Lag(i uint32) int64 {
	idx := i % uint32(ag.main.Size())
	var d int64
	for _, b := range ag.banks {
		d += b.delta[idx]
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
	for _, b := range ag.banks {
		for i := range b.delta {
			b.delta[i] = 0
			b.inq[i] = false
		}
		b.dirty = b.dirty[:0]
		b.head = 0
	}
}

// PendingAbs returns the total undrained magnitude across all banks:
// the sum over banks and indices of |pending delta|. Unlike Lag, opposite
// pending deltas in different banks do not cancel, so this is the measure
// of how far behind the drain process is.
func (ag *Aggregated) PendingAbs() int64 {
	var total int64
	for _, b := range ag.banks {
		for _, d := range b.delta {
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
func (ag *Aggregated) Backlog() int {
	n := 0
	for _, b := range ag.banks {
		n += b.backlog()
	}
	return n
}

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
