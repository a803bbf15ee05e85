package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "fig2", Paper: "Figures 1-2 (baseline PSA vs event-driven architecture)", Run: Fig2})
}

// Fig2 contrasts the two programming models on the same task: tracking
// per-port buffer occupancy in the ingress pipeline. The event-driven
// program (Figure 2's logical architecture) updates state on enqueue and
// dequeue events and is exact up to bounded staleness; the baseline
// program (Figure 1's PSA) only sees packet arrivals in ingress and must
// approximate occupancy — here with the natural arrival-minus-estimated-
// drain heuristic. We sample the true traffic-manager occupancy and
// report each design's estimation error.
func Fig2(env *Env) *Result {
	const horizon = 20 * sim.Millisecond
	const egress = 1

	type run struct {
		name string
		err  *sim.Stats
	}
	var runs []run

	// --- Event-driven design -------------------------------------------
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{QueueCapBytes: 1 << 20}, core.EventDriven(), sched)
		prog := pisa.NewProgram("occupancy-events")
		occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 4,
			events.BufferEnqueue, events.BufferDequeue))
		prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = egress })
		prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
		})
		prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
		})
		sw.MustLoad(prog)
		errs := sim.NewStats()
		driveOccupancyWorkload(sched, sw, horizon)
		sched.Every(100*sim.Microsecond, func() {
			est := float64(occ.Stale(uint32(egress)))
			truth := float64(sw.TM().PortBytes(egress))
			errs.Add(math.Abs(est - truth))
		})
		sched.Run(horizon)
		mustConserve(sw)
		runs = append(runs, run{"event-driven (enq/deq events)", errs})
	}

	// --- Baseline PSA design -------------------------------------------
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{QueueCapBytes: 1 << 20}, core.Baseline(), sched)
		prog := pisa.NewProgram("occupancy-baseline")
		// Ingress-side estimate: add on arrival, and guess the drain by
		// assuming the port transmits continuously at line rate while
		// the estimate is positive. This is the best an ingress-only
		// view can do without enqueue/dequeue events (cf. Snappy).
		var est float64
		var lastUpdate sim.Time
		lineBytesPerPs := float64(10*sim.Gbps) / 8 / float64(sim.Second)
		prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
			ctx.EgressPort = egress
			drained := float64(ctx.Now-lastUpdate) * lineBytesPerPs
			lastUpdate = ctx.Now
			est -= drained
			if est < 0 {
				est = 0
			}
			est += float64(ctx.Pkt.Len())
		})
		sw.MustLoad(prog)
		errs := sim.NewStats()
		driveOccupancyWorkload(sched, sw, horizon)
		sched.Every(100*sim.Microsecond, func() {
			drained := float64(sched.Now()-lastUpdate) * lineBytesPerPs
			cur := est - drained
			if cur < 0 {
				cur = 0
			}
			truth := float64(sw.TM().PortBytes(egress))
			errs.Add(math.Abs(cur - truth))
		})
		sched.Run(horizon)
		mustConserve(sw)
		runs = append(runs, run{"baseline PSA (ingress-only estimate)", errs})
	}

	res := &Result{
		ID:    "fig2",
		Title: "Per-port occupancy tracking: event-driven vs baseline PSA (paper Figs 1-2)",
		Cols:  []string{"design", "mean |error| (B)", "p99 |error| (B)", "max |error| (B)"},
	}
	for _, r := range runs {
		res.AddRow(r.name,
			fmt.Sprintf("%.0f", r.err.Mean()),
			fmt.Sprintf("%.0f", r.err.Percentile(99)),
			fmt.Sprintf("%.0f", r.err.Max()))
	}
	if runs[0].err.Mean() > 0 && runs[1].err.Mean() > 0 {
		res.Notef("error ratio baseline/event-driven = %.1fx (mean)", runs[1].err.Mean()/runs[0].err.Mean())
	}
	res.Notef("event-driven error is bounded staleness (aggregation drain lag); baseline error is structural")
	return res
}

// driveOccupancyWorkload offers bursty on/off traffic that repeatedly
// builds and drains the egress queue: 2:1 oversubscription during bursts.
func driveOccupancyWorkload(sched *sim.Scheduler, sw *core.Switch, horizon sim.Time) {
	rng := sim.NewRNG(1234)
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	gen0 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	gen2 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
	// Alternating 1ms bursts at full rate from two input ports into one
	// 10G egress, with idle gaps for draining.
	for start := sim.Time(0); start < horizon; start += 2 * sim.Millisecond {
		start := start
		sched.At(start, func() {
			gen0.StartSaturate(workload.SaturateConfig{
				Flow: fl, Rate: 10 * sim.Gbps, Load: 1.0, Size: 1500,
				Until: start + sim.Millisecond,
			})
			fl2 := fl
			fl2.SrcPort = 77
			gen2.StartSaturate(workload.SaturateConfig{
				Flow: fl2, Rate: 10 * sim.Gbps, Load: 1.0, Size: 1500,
				Until: start + sim.Millisecond,
			})
		})
	}
}
