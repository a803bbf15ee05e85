package controlplane

import (
	"testing"

	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/sketch"
)

func TestDoLatencyAndCounting(t *testing.T) {
	sched := sim.NewScheduler()
	a := New(sched, sim.NewRNG(1))
	a.Latency = sim.Millisecond
	a.Jitter = 0
	done := sim.Time(0)
	at := a.Do(3, func() { done = sched.Now() })
	if at != sim.Millisecond {
		t.Errorf("scheduled at %v", at)
	}
	sched.Run(10 * sim.Millisecond)
	if done != sim.Millisecond {
		t.Errorf("applied at %v, want 1ms", done)
	}
	if a.Messages != 3 || a.Completed != 1 {
		t.Errorf("messages=%d completed=%d", a.Messages, a.Completed)
	}
}

func TestJitterVaries(t *testing.T) {
	sched := sim.NewScheduler()
	a := New(sched, sim.NewRNG(2))
	a.Latency = sim.Millisecond
	a.Jitter = sim.Millisecond
	seen := map[sim.Time]bool{}
	for i := 0; i < 50; i++ {
		at := a.Do(1, nil)
		d := at - sched.Now()
		if d < sim.Millisecond || d >= 2*sim.Millisecond {
			t.Fatalf("delay %v out of [1ms,2ms)", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter not varying: %d distinct delays", len(seen))
	}
}

func TestInstallEntryTakesEffectLater(t *testing.T) {
	sched := sim.NewScheduler()
	a := New(sched, sim.NewRNG(3))
	a.Latency, a.Jitter = sim.Millisecond, 0
	tbl := pisa.NewTable("t", []pisa.MatchKind{pisa.Exact}, func(ctx *pisa.Context, dst []uint64) bool {
		dst[0] = 1
		return true
	})
	a.InstallEntry(tbl, &pisa.Entry{Values: []uint64{1}, Action: func(*pisa.Context, []uint64) {}})
	if tbl.Apply(&pisa.Context{}) {
		t.Error("entry visible before channel latency")
	}
	sched.Run(2 * sim.Millisecond)
	if !tbl.Apply(&pisa.Context{}) {
		t.Error("entry not installed")
	}
}

// TestResetCMSCostsRowMessages: a count-min sketch reset through the
// control channel, as the baseline sends it, costs one message per row.
func TestResetCMSCostsRowMessages(t *testing.T) {
	sched := sim.NewScheduler()
	a := New(sched, sim.NewRNG(4))
	c := sketch.NewCMS(5, 64)
	c.Update(1, 10)
	a.Do(c.ResetCost(), c.Reset)
	sched.Run(sim.Second)
	if a.Messages != 5 {
		t.Errorf("messages = %d, want 5 (one per row)", a.Messages)
	}
	if c.Estimate(1) != 0 {
		t.Error("sketch not reset")
	}
}
