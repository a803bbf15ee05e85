package state

import "testing"

// drainIdle runs up to max idle cycles (Tick, then EndCycle with every
// main port free) while a backlog remains, and returns how many it ran.
func drainIdle(ag *Aggregated, max uint64) uint64 {
	var used uint64
	for used < max && ag.Backlog() > 0 {
		ag.Tick(ag.cycle + 1)
		ag.EndCycle()
		used++
	}
	return used
}

// TestBankCompactionShrinksCapacity is the satellite fix's regression
// test: after a storm fills a bank's dirty FIFO far beyond its steady
// state, draining it must also release the storm-sized backing slice, not
// just compact the head in place.
func TestBankCompactionShrinksCapacity(t *testing.T) {
	const size = 1 << 14
	ag := NewAggregated("q", size, 1, "e")
	// Storm: one defer per cycle (the bank's port budget) to distinct
	// indices, growing the dirty FIFO to `size` entries.
	c := uint64(0)
	for i := 0; i < size; i++ {
		c++
		ag.Tick(c)
		ag.Defer(0, uint32(i), 1)
		ag.Main().TryRead(c, 0) // keep the main port busy: no drains yet
		ag.EndCycle()
	}
	b := &ag.banks[0]
	if got := cap(b.dirty); got < size {
		t.Fatalf("storm did not grow the FIFO: cap %d < %d", got, size)
	}
	peak := cap(b.dirty)
	if used := drainIdle(ag, 1<<62); used == 0 {
		t.Fatal("nothing drained")
	}
	if ag.Backlog() != 0 {
		t.Fatalf("backlog %d after full drain", ag.Backlog())
	}
	if got := cap(b.dirty); got >= peak/2 {
		t.Errorf("dirty FIFO capacity %d retained after drain (peak %d); compaction must shrink it", got, peak)
	}
}
