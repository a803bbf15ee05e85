package state

import (
	"testing"
	"testing/quick"
)

func TestArrayBasics(t *testing.T) {
	a := NewArray("r", 8, 1)
	if a.Name() != "r" || a.Size() != 8 || a.Ports() != 1 {
		t.Fatalf("metadata wrong: %s %d %d", a.Name(), a.Size(), a.Ports())
	}
	a.Tick(1)
	if _, ok := a.TryRMW(3, func(uint64) uint64 { return 42 }); !ok {
		t.Fatal("first write denied")
	}
	// Port budget exhausted within the same cycle.
	if _, ok := a.TryRead(3); ok {
		t.Fatal("second access in cycle should be denied on single-ported array")
	}
	a.Tick(2)
	v, ok := a.TryRead(3)
	if !ok || v != 42 {
		t.Fatalf("read = %d ok=%v, want 42", v, ok)
	}
	reads, writes, denied := a.Stats()
	if reads != 2 || writes != 1 || denied != 1 {
		t.Errorf("stats = %d/%d/%d, want 2/1/1", reads, writes, denied)
	}
}

func TestArrayMultiPort(t *testing.T) {
	a := NewArray("r", 4, 3)
	a.Tick(1)
	for i := 0; i < 3; i++ {
		if _, ok := a.TryRead(0); !ok {
			t.Fatalf("access %d denied with 3 ports", i)
		}
	}
	if _, ok := a.TryRead(0); ok {
		t.Fatal("4th access allowed with 3 ports")
	}
	if a.Free() != 0 {
		t.Errorf("Free = %d, want 0", a.Free())
	}
}

func TestArrayRMW(t *testing.T) {
	a := NewArray("r", 4, 2)
	a.Tick(1)
	v, ok := a.TryRMW(2, func(v uint64) uint64 { return v + 10 })
	if !ok || v != 10 {
		t.Fatalf("rmw = %d ok=%v", v, ok)
	}
	v, ok = a.TryRMW(2, func(v uint64) uint64 { return v * 3 })
	if !ok || v != 30 {
		t.Fatalf("second rmw = %d ok=%v", v, ok)
	}
	if a.Peek(2) != 30 {
		t.Errorf("Peek = %d, want 30", a.Peek(2))
	}
}

func TestArrayIndexWraps(t *testing.T) {
	a := NewArray("r", 4, 4)
	a.Tick(1)
	a.TryRMW(5, func(uint64) uint64 { return 7 }) // wraps to 1
	if a.Peek(1) != 7 {
		t.Errorf("index should wrap modulo size")
	}
}

func TestArrayTickBackwardsPanics(t *testing.T) {
	a := NewArray("r", 1, 1)
	a.Tick(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards tick")
		}
	}()
	a.Tick(4)
}

func TestArrayResetAndPoke(t *testing.T) {
	a := NewArray("r", 4, 1)
	a.Poke(0, 1)
	a.Poke(3, 9)
	a.Reset()
	for i := uint32(0); i < 4; i++ {
		if a.Peek(i) != 0 {
			t.Errorf("entry %d = %d after reset", i, a.Peek(i))
		}
	}
}

func TestAggregatedExactWhenDrained(t *testing.T) {
	// Enqueue +len, dequeue -len; after enough idle cycles the main
	// register equals the true value.
	ag := NewAggregated("qsize", 8, 1, "enq", "deq")
	cycle := uint64(0)
	add := func(class int, idx uint32, d int64) {
		cycle++
		ag.Tick(cycle)
		if !ag.Defer(class, idx, d) {
			t.Fatalf("defer refused at cycle %d", cycle)
		}
		ag.EndCycle()
	}
	add(0, 1, +200)
	add(0, 1, +100)
	add(1, 1, -50)
	if got := ag.True(1); got != 250 {
		t.Fatalf("True = %d, want 250", got)
	}
	// Idle cycles drain everything.
	for i := 0; i < 10; i++ {
		cycle++
		ag.Tick(cycle)
		ag.EndCycle()
	}
	if got := ag.Main().Peek(1); got != 250 {
		t.Errorf("main after drain = %d, want 250", got)
	}
	if ag.Backlog() != 0 {
		t.Errorf("backlog = %d, want 0", ag.Backlog())
	}
	if got := ag.Lag(1); got != 0 {
		t.Errorf("lag = %d, want 0", got)
	}
}

func TestAggregatedPacketPriority(t *testing.T) {
	// A packet-event RMW in a cycle uses the main port, so no drain
	// happens that cycle; the main value stays stale.
	ag := NewAggregated("qsize", 4, 1, "enq")
	ag.Tick(1)
	ag.Defer(0, 0, +100)
	ag.EndCycle() // bank port was used by the defer; nothing drains yet
	ag.Tick(2)
	ag.EndCycle() // idle cycle: drains
	if ag.Main().Peek(0) != 100 {
		t.Fatalf("expected drain on idle cycle")
	}
	ag.Tick(3)
	ag.Defer(0, 0, +50)
	// Packet thread reads (and consumes the main port).
	if v, ok := ag.Main().TryRead(0); !ok || v != 100 {
		t.Fatalf("packet read = %d ok=%v, want stale 100", v, ok)
	}
	ag.EndCycle()
	if ag.Main().Peek(0) != 100 {
		t.Errorf("main updated despite busy port")
	}
	if ag.True(0) != 150 {
		t.Errorf("True = %d, want 150", ag.True(0))
	}
	ag.Tick(4)
	ag.EndCycle()
	if ag.Main().Peek(0) != 150 {
		t.Errorf("main after idle = %d, want 150", ag.Main().Peek(0))
	}
}

func TestAggregatedDeltaCancellation(t *testing.T) {
	ag := NewAggregated("qsize", 4, 1, "enq", "deq")
	ag.Tick(1)
	ag.Defer(0, 2, +64)
	ag.EndCycle()
	ag.Tick(2)
	ag.Defer(1, 2, -64)
	// Main holds +64 now; the -64 drains later and cancels.
	for c := uint64(3); c < 6; c++ {
		ag.Tick(c)
		ag.EndCycle()
	}
	if got := ag.Main().Peek(2); got != 0 {
		t.Errorf("main = %d, want 0", got)
	}
	if ag.True(2) != 0 {
		t.Errorf("True = %d, want 0", ag.True(2))
	}
}

func TestAggregatedStalenessBounded(t *testing.T) {
	// Load 0.5: one event every other cycle, main port free on event
	// cycles. Staleness must stay small and bounded.
	ag := NewAggregated("qsize", 16, 1, "enq")
	for c := uint64(1); c <= 10000; c++ {
		ag.Tick(c)
		if c%2 == 0 {
			ag.Defer(0, uint32(c%16), +1)
		}
		ag.EndCycle()
	}
	m := ag.Metrics()
	if m.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", m.Dropped)
	}
	if m.MaxLag > 4 {
		t.Errorf("max lag = %d cycles, want small bound", m.MaxLag)
	}
	if m.MaxBacklog > 2 {
		t.Errorf("max backlog = %d, want <= 2", m.MaxBacklog)
	}
}

func TestAggregatedBacklogGrowsWhenSaturated(t *testing.T) {
	// Every cycle the packet thread occupies the main port AND an event
	// arrives: nothing can drain, so backlog grows with distinct indices.
	ag := NewAggregated("qsize", 1024, 1, "enq")
	for c := uint64(1); c <= 512; c++ {
		ag.Tick(c)
		ag.Main().TryRead(0)       // packet thread, consumes main port
		ag.Defer(0, uint32(c), +1) // distinct index each cycle
		ag.EndCycle()
	}
	if got := ag.Backlog(); got != 512 {
		t.Errorf("backlog = %d, want 512 (no drain bandwidth)", got)
	}
	// Give it idle cycles: backlog must fully drain at one per cycle.
	for c := uint64(513); c <= 1200; c++ {
		ag.Tick(c)
		ag.EndCycle()
	}
	if got := ag.Backlog(); got != 0 {
		t.Errorf("backlog after idle = %d, want 0", got)
	}
}

func TestAggregatedTrueInvariant(t *testing.T) {
	// Property: regardless of the interleaving of defers and idle
	// cycles, True(i) always equals the running sum of applied deltas.
	f := func(ops []int8) bool {
		ag := NewAggregated("x", 8, 1, "enq", "deq")
		want := make([]int64, 8)
		cycle := uint64(0)
		for _, op := range ops {
			cycle++
			ag.Tick(cycle)
			idx := uint32(op) % 8
			d := int64(op % 5)
			class := 0
			if op%2 == 0 {
				class = 1
			}
			if ag.Defer(class, idx, d) {
				want[idx%8] += d
			}
			ag.EndCycle()
		}
		for i := uint32(0); i < 8; i++ {
			if ag.True(i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregatedMetricsString(t *testing.T) {
	ag := NewAggregated("x", 4, 1, "enq")
	ag.Tick(1)
	ag.Defer(0, 0, 1)
	ag.EndCycle()
	if s := ag.Metrics().String(); s == "" {
		t.Error("empty metrics string")
	}
}

func TestAggregatedBankPortContention(t *testing.T) {
	// Two defers of the same class in one cycle: the second must be
	// refused (one port per aggregation bank).
	ag := NewAggregated("x", 4, 1, "enq")
	ag.Tick(1)
	if !ag.Defer(0, 0, 1) {
		t.Fatal("first defer refused")
	}
	if ag.Defer(0, 1, 1) {
		t.Fatal("second defer in same cycle should be refused")
	}
	if ag.Metrics().Dropped != 1 {
		t.Errorf("dropped = %d, want 1", ag.Metrics().Dropped)
	}
}

func TestAggregatedPendingAbs(t *testing.T) {
	ag := NewAggregated("x", 8, 1, "enq", "deq")
	ag.Tick(1)
	ag.Main().TryRead(0) // block drains this cycle
	ag.Defer(0, 1, +100)
	ag.Defer(1, 2, -40)
	if got := ag.PendingAbs(); got != 140 {
		t.Errorf("PendingAbs = %d, want 140 (magnitudes, not sum)", got)
	}
	// Drain everything on idle cycles.
	for c := uint64(2); c < 8; c++ {
		ag.Tick(c)
		ag.EndCycle()
	}
	if got := ag.PendingAbs(); got != 0 {
		t.Errorf("PendingAbs after drain = %d", got)
	}
}

func TestAggregatedResetAll(t *testing.T) {
	ag := NewAggregated("x", 4, 1, "enq")
	ag.Tick(1)
	ag.Main().TryRead(0)
	ag.Defer(0, 2, 50)
	ag.ResetAll()
	if ag.True(2) != 0 || ag.Backlog() != 0 || ag.PendingAbs() != 0 {
		t.Errorf("ResetAll incomplete: true=%d backlog=%d pending=%d",
			ag.True(2), ag.Backlog(), ag.PendingAbs())
	}
	// The structure keeps working after reset.
	ag.Tick(2)
	ag.Defer(0, 2, 7)
	ag.Tick(3)
	ag.EndCycle()
	if ag.True(2) != 7 {
		t.Errorf("post-reset defer lost: %d", ag.True(2))
	}
}

func TestAggregatedDrainRoundRobinFair(t *testing.T) {
	// Two banks saturated with deltas to distinct indices; with the main
	// port free every cycle, drains must alternate so neither bank
	// starves.
	ag := NewAggregated("x", 64, 1, "a", "b")
	for c := uint64(1); c <= 32; c++ {
		ag.Tick(c)
		ag.Defer(0, uint32(c), +1)
		ag.Defer(1, uint32(32+c), -1)
		ag.EndCycle()
	}
	// After the fill phase both banks have backlog; run idle cycles and
	// confirm both drain to zero (starvation would leave one full).
	for c := uint64(33); c <= 200; c++ {
		ag.Tick(c)
		ag.EndCycle()
	}
	if got := ag.Backlog(); got != 0 {
		t.Errorf("backlog = %d after ample idle cycles", got)
	}
}
