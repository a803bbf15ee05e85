package bench

import (
	"testing"

	"repro/internal/sim"
)

// TestResilienceEventDrivenLosesLess pins the experiment's headline
// claim at every swept flap rate: the event-driven re-router loses
// strictly fewer packets than the delayed control-plane baseline, and
// both converge (one failover per flap).
func TestResilienceEventDrivenLosesLess(t *testing.T) {
	for _, p := range []sim.Time{
		200 * sim.Microsecond, 500 * sim.Microsecond,
		sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond,
	} {
		seed := TrialSeed(0xacce97, int(p/sim.Microsecond))
		ed := runResilience(&Env{}, resilienceTrial{eventDriven: true, period: p}, seed)
		cp := runResilience(&Env{}, resilienceTrial{eventDriven: false, period: p}, seed)
		if ed.failovers != ed.flaps || cp.failovers != cp.flaps {
			t.Errorf("period %v: failovers ed=%d/%d cp=%d/%d, want one per flap",
				p, ed.failovers, ed.flaps, cp.failovers, cp.flaps)
		}
		if ed.lost >= cp.lost {
			t.Errorf("period %v: event-driven lost %d, control plane lost %d — want strictly fewer",
				p, ed.lost, cp.lost)
		}
	}
}

// TestResilienceSurvivesTinyEventQueue pins the coalescing guarantee:
// shrinking the LinkStatusChange FIFO to a single entry changes nothing
// about the event-driven outcome under the fastest storm.
func TestResilienceSurvivesTinyEventQueue(t *testing.T) {
	p := 200 * sim.Microsecond
	seed := TrialSeed(0xacce97, 1)
	full := runResilience(&Env{}, resilienceTrial{eventDriven: true, period: p}, seed)
	tiny := runResilience(&Env{}, resilienceTrial{eventDriven: true, period: p, evqDepth: 1}, seed)
	if tiny.lost != full.lost || tiny.failovers != full.failovers || tiny.delivered != full.delivered {
		t.Errorf("evq=1 diverged: full=%+v tiny=%+v", full, tiny)
	}
}
