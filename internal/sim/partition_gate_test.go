package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestPartitionIdleDomainSkipped pins the idle-domain skip at both
// levels. One round driven by hand: three domains, only the middle one
// holding work, so exactly one worker is released once and the other two
// clocks never move. Then whole runs: the barrier hooks (single-threaded,
// so they may read every clock) see the idle domains still at their start
// instant at every barrier before the final pass, all clocks settle at
// the horizon, and the token ring — whose domains take turns, so most
// rounds skip somebody — fires the same events in the same order as the
// serial reference.
func TestPartitionIdleDomainSkipped(t *testing.T) {
	p := NewPartition(3)
	p.SetLookahead(10)
	ran := 0
	for i := 0; i < 6; i++ {
		p.Sched(1).At(Time(5+i), func() { ran++ })
	}
	p.next, p.edges = make([]Time, 3), make([]Time, 3)
	p.scanNext()
	p.computeEdges(100)
	g := startGate(p.scheds)
	if n := p.round(g, false); n != 0 {
		t.Errorf("domain 0 fired %d events in a round it has no work in", n)
	}
	mid, idle := g.workers[0], g.workers[1]
	if got := mid.released.n.Load(); got != 1 {
		t.Errorf("active middle domain released %d times, want 1", got)
	}
	if got := idle.released.n.Load(); got != 0 {
		t.Errorf("idle domain 2 released %d times, want never", got)
	}
	if g.expected != 1 || mid.fired != 6 || ran != 6 {
		t.Errorf("expected=%d worker fired=%d callbacks=%d, want 1, 6, 6", g.expected, mid.fired, ran)
	}
	if a, b, c := p.Sched(0).Now(), p.Sched(1).Now(), p.Sched(2).Now(); a != 0 || b != 10 || c != 0 {
		t.Errorf("clocks after the round = %d, %d, %d, want 0, 10, 0 (idle clocks untouched)", a, b, c)
	}
	g.shutdown()

	// Only a middle domain active, through Run.
	p = NewPartition(3)
	p.SetLookahead(10)
	ran = 0
	for i := 0; i < 50; i++ {
		p.Sched(1).At(Time(3*i), func() { ran++ })
	}
	barriers, moved := 0, 0
	p.OnBarrier(func() {
		barriers++
		if p.Sched(1).Now() < 147 && (p.Sched(0).Now() != 0 || p.Sched(2).Now() != 0) {
			moved++
		}
	})
	if n := p.Run(200); n != 50 || ran != 50 {
		t.Errorf("Run fired %d (callbacks %d), want 50", n, ran)
	}
	if barriers < 4 || moved != 0 {
		t.Errorf("%d barriers, idle clocks moved at %d of them before the last event ran", barriers, moved)
	}
	for d := 0; d < 3; d++ {
		if now := p.Sched(d).Now(); now != 200 {
			t.Errorf("domain %d clock = %d after Run(200)", d, now)
		}
	}

	for _, domains := range []int{2, 3} {
		serial, par := newRing(domains), newRing(domains)
		want := serial.runSerial(600 * Microsecond)
		par.seed()
		n := par.p.Run(600 * Microsecond)
		diffTraces(t, fmt.Sprintf("ring domains=%d", domains), want, par.collect())
		var sum uint64
		for d := 0; d < domains; d++ {
			if a, b := serial.p.Sched(d).Fired(), par.p.Sched(d).Fired(); a != b {
				t.Errorf("ring domains=%d: domain %d fired %d partitioned, %d serial", domains, d, b, a)
			}
			sum += par.p.Sched(d).Fired()
		}
		if n != sum {
			t.Errorf("ring domains=%d: Run returned %d, domains fired %d", domains, n, sum)
		}
	}
}

// TestPartitionOversubscribed runs four 2-domain partitions at once —
// eight goroutines that want a P — on two Ps and then on one. A waiter
// that only spun would starve the goroutine it waits for; the gate's
// yield rung hands the P over, so every run completes and matches the
// serial reference.
func TestPartitionOversubscribed(t *testing.T) {
	want := runRingSerial(2, 600*Microsecond)
	for _, procs := range []int{2, 1} {
		prev := runtime.GOMAXPROCS(procs)
		got := make([][]string, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runRingParallel(2, 600*Microsecond)
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i := range got {
			diffTraces(t, fmt.Sprintf("GOMAXPROCS=%d partition %d", procs, i), want, got[i])
		}
	}
}
