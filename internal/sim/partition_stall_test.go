package sim

import (
	"testing"
	"time"

	"repro/internal/telemetry/self"
)

// TestPartitionBarrierAccounting pins the partition's self-metric
// accounting against a hand-computed window schedule. Two domains,
// lookahead 25, one of them holding events at t = 0, 10, ..., 90,
// Run(100): the adaptive protocol sees the other domain idle at the first
// barrier, so the busy one is bounded only by its own round trip
// (2×lookahead = 50) and batches events 0..40 into one window, then
// 50..90 into a second — where the fixed-width protocol needed four
// rounds — followed by the final inclusive pass. That is 3 windows, 4
// barriers (before the first window, between windows, at the loop's exit
// scan, after the final pass), and two windows whose edge beat the
// classic min(next)+lookahead bound.
//
// Every domain counts every round in DomainWindows, skipped or not: the
// idle domain sits out both exclusive windows (it has nothing before its
// edge) and still reads 3, because the counter says how many rounds the
// domain was synchronised through, not how many it had work in.
//
// The stall counter has two sources, and both cases run. Domain 0 is
// executed by the coordinator itself, so its stall is the coordinator's
// wait for the workers after its own window (busy = 1). Any other
// domain's stall is its worker's wait between windows, starting when the
// worker does (busy = 0: domain 1 waits out both of domain 0's windows
// before the final pass releases it). The busy domain's events are
// deliberately slowed, so the idle one must accumulate real waiting —
// wall-clock time that never touches simulation state. Run under -race
// this also proves the accounting on both goroutines is clean.
func TestPartitionBarrierAccounting(t *testing.T) {
	for busy := 0; busy < 2; busy++ {
		pl := new(self.Plane)
		p := NewPartition(2)
		p.SetSelf(pl)
		p.SetLookahead(25)
		fired := 0
		for i := 0; i < 10; i++ {
			p.Sched(busy).At(Time(i*10), func() {
				fired++
				time.Sleep(time.Millisecond) // magnify the idle domain's barrier stall
			})
		}
		n := p.Run(100)

		if n != 10 || fired != 10 {
			t.Fatalf("busy=%d: ran %d events (callback saw %d), want 10", busy, n, fired)
		}
		const wantWindows = 3
		if got := p.Windows(); got != wantWindows {
			t.Errorf("busy=%d: Partition.Windows() = %d, want %d", busy, got, wantWindows)
		}
		if got := pl.PartBarriers.Value(); got != 4 {
			t.Errorf("busy=%d: self.PartBarriers = %d, want 4", busy, got)
		}
		if got := pl.PartBatchedWindows.Value(); got != 2 {
			t.Errorf("busy=%d: self.PartBatchedWindows = %d, want 2 (the busy domain's edge should batch to its round trip)", busy, got)
		}
		if got := pl.Domains(); got != 2 {
			t.Errorf("busy=%d: self.Domains() = %d, want 2", busy, got)
		}
		for d := 0; d < 2; d++ {
			if got := pl.DomainWindows(d).Value(); got != wantWindows {
				t.Errorf("busy=%d: domain %d window count = %d, want %d", busy, d, got, wantWindows)
			}
		}
		// The idle domain waits ~10ms for the busy one; anything non-zero
		// proves the stall clock ran, the 1ms floor proves it measured
		// real waiting.
		if got := pl.DomainStallNS(1 - busy).Value(); got < uint64(time.Millisecond.Nanoseconds()) {
			t.Errorf("busy=%d: domain %d barrier stall = %dns, want >= 1ms of accumulated waiting", busy, 1-busy, got)
		}
		if got := pl.SimNowPS.Value(); got != 100 {
			t.Errorf("busy=%d: self.SimNowPS = %d, want 100", busy, got)
		}
	}
}

// TestPartitionBatchingBounded pins the other side of the adaptive
// protocol: when every domain holds nearby work, edges collapse to the
// classic conservative width and batching must NOT engage. Two domains,
// lookahead 10, both holding events every 10 units: each round's edge is
// exactly min(next)+lookahead, so the window count matches the
// fixed-width protocol's.
func TestPartitionBatchingBounded(t *testing.T) {
	pl := new(self.Plane)
	p := NewPartition(2)
	p.SetSelf(pl)
	p.SetLookahead(10)
	var fired [2]int // one slot per domain: no cross-goroutine writes
	for i := 0; i < 10; i++ {
		at := Time(i * 10)
		p.Sched(0).At(at, func() { fired[0]++ })
		p.Sched(1).At(at, func() { fired[1]++ })
	}
	p.Run(100)
	if fired[0] != 10 || fired[1] != 10 {
		t.Fatalf("fired = %v, want 10 per domain", fired)
	}
	// Rounds: edges advance by exactly one lookahead per barrier —
	// windows at edges 10, 20, ..., 100 (exclusive) plus the final
	// inclusive pass = 11, exactly the fixed-width schedule.
	if got := p.Windows(); got != 11 {
		t.Errorf("Partition.Windows() = %d, want 11 (no batching when both domains stay busy)", got)
	}
	if got := pl.PartBatchedWindows.Value(); got != 0 {
		t.Errorf("self.PartBatchedWindows = %d, want 0", got)
	}
}
