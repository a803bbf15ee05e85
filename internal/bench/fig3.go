package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/state"
)

func init() {
	register(Experiment{ID: "fig3", Paper: "Figure 3 (aggregation registers for multi-event state)", Run: Fig3})
}

// Fig3 exercises the paper's Figure 3 mechanism directly: a main
// queue-size register updated by enqueue and dequeue events through
// single-ported aggregation banks, with packet events occupying the main
// port on a fraction of cycles (the load). Deltas to an already-dirty
// index coalesce in the bank, so for any load below 100% the pending
// (undrained) state converges to a bounded steady state; at exactly 100%
// no idle cycle ever drains and the main register's staleness grows for
// the whole run — the paper's overspeed argument.
func Fig3(env *Env) *Result {
	res := &Result{
		ID:    "fig3",
		Title: "Aggregation-register drain behaviour vs packet load (paper Fig 3)",
		Cols: []string{"pkt load", "deferred", "drained", "backlog@50%", "backlog@end",
			"pending bytes@50%", "pending bytes@end", "mean lag (cyc)", "bounded"},
	}
	const cycles = 600_000
	const size = 256
	loads := []float64{0.50, 0.80, 0.90, 0.95, 1.00}
	rows := RunParallel(env, len(loads), func(trial int) []string {
		load := loads[trial]
		rng := sim.NewRNG(42)
		ag := state.NewAggregated("qsize", size, 1, "enq", "deq")
		evRate := 0.45 // enqueue and dequeue events each on 45% of cycles

		pendingAbs := func() int64 {
			var total int64
			for i := uint32(0); i < size; i++ {
				total += ag.Lag(i)
			}
			return total
		}
		var backlogHalf int
		var pendingHalf int64
		for c := uint64(1); c <= cycles; c++ {
			ag.Tick(c)
			if rng.Float64() < evRate {
				ag.Defer(0, uint32(rng.Intn(size)), +1000)
			}
			if rng.Float64() < evRate {
				ag.Defer(1, uint32(rng.Intn(size)), -1000)
			}
			if rng.Float64() < load {
				ag.Main().TryRead(uint32(rng.Intn(size)))
			}
			ag.EndCycle()
			if c == cycles/2 {
				backlogHalf = ag.Backlog()
				pendingHalf = pendingAbs()
			}
		}
		m := ag.Metrics()
		pendingEnd := pendingAbs()
		// Bounded: the undrained state did not keep growing through the
		// second half of the run.
		bounded := float64(pendingEnd) < 1.3*float64(pendingHalf)+32_000
		lag := "inf"
		if m.Drained > 0 {
			lag = fmt.Sprintf("%.0f", m.MeanLag)
		}
		return []string{
			fmt.Sprintf("%.0f%%", load*100),
			d(m.Deferred), d(m.Drained),
			d(backlogHalf), d(ag.Backlog()),
			d(pendingHalf), d(pendingEnd),
			lag, yn(bounded),
		}
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("pending bytes = sum over indices of |undrained delta|: the gap between the stale main register and the true value")
	res.Notef("coalescing bounds the dirty-index backlog at any load; at 100%% load value staleness grows all run (no idle cycles)")
	res.Notef("any load < 100%% — pipeline overspeed or larger-than-minimum packets — keeps staleness bounded, as §4 argues")
	return res
}
