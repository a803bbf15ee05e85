package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "staleness", Paper: "§4 claim: staleness bounded iff pipeline runs faster than line rate", Run: Staleness})
}

// Staleness runs the full switch (not just the register model) across a
// grid of pipeline overspeeds and offered loads, measuring the
// event-updated occupancy register's staleness: the gap between its
// data-plane-visible value and the true value, sampled periodically. The
// paper's §4: "staleness is bounded if the pipeline runs slightly faster
// than the line rate (as is typical)" — and reducing packet load (e.g.
// not using some external ports) buys accuracy, the bandwidth/accuracy
// trade-off.
func Staleness(env *Env) *Result {
	res := &Result{
		ID:    "staleness",
		Title: "Occupancy-register staleness vs pipeline overspeed and load (paper §4)",
		Cols: []string{"overspeed", "load", "mean |stale| (B)", "max |stale| (B)",
			"undrained @end (B)", "defer lag max (cyc)", "bounded"},
	}
	const horizon = 10 * sim.Millisecond
	type point struct {
		overspeed, load float64
	}
	var grid []point
	for _, overspeed := range []float64{1.0, 1.05, 1.25, 1.5} {
		for _, load := range []float64{0.7, 1.0} {
			grid = append(grid, point{overspeed, load})
		}
	}
	rows := RunParallel(env, len(grid), func(trial int) []string {
		pt := grid[trial]
		row := runStaleness(env, pt.overspeed, pt.load, horizon,
			env.collector(fmt.Sprintf("staleness/t%02d", trial)))
		return append([]string{
			fmt.Sprintf("%.2fx", pt.overspeed),
			fmt.Sprintf("%.0f%%", pt.load*100),
		}, row...)
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("min-size frames on all 4 ports; staleness sampled every 50us against the register's true value")
	res.Notef("undrained@end = total |pending delta| across aggregation banks: the drain process's debt")
	res.Notef("at overspeed 1.00x and 100%% load there are no idle cycles: the debt grows for the whole run (unbounded)")
	res.Notef("with any slack — overspeed > 1 or load < 100%% (the paper's freed-up ports) — staleness is bounded and shrinks as overspeed grows")
	return res
}

func runStaleness(env *Env, overspeed, load float64, horizon sim.Time, tel *telemetry.Collector) []string {
	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{Overspeed: overspeed}, core.EventDriven(), sched)
	if tel != nil {
		sw.EnableTelemetry(tel)
	}

	prog := pisa.NewProgram("staleness")
	occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
		events.BufferEnqueue, events.BufferDequeue))
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		// A congestion-aware forwarding decision: the packet thread
		// reads the occupancy register every slot, so drains only
		// happen on genuinely idle cycles (the paper's scenario).
		_ = occ.Read(ctx, uint32(ctx.Pkt.InPort^1))
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	sw.MustLoad(prog)

	rng := sim.NewRNG(31)
	for port := 0; port < 4; port++ {
		port := port
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(port, d) })
		fl := packet.Flow{
			Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP,
		}
		g.StartSaturate(workload.SaturateConfig{
			Flow: fl, Rate: 10 * sim.Gbps, Load: load, Size: 60, Until: horizon,
		})
	}

	stale := sim.NewStats()
	sched.Every(50*sim.Microsecond, func() {
		for port := uint32(0); port < 4; port++ {
			gap := occ.True(port) - int64(occ.Stale(port))
			if gap < 0 {
				gap = -gap
			}
			stale.Add(float64(gap))
		}
	})
	sched.Run(horizon)
	mustConserve(sw)

	m, _ := occ.Metrics()
	pending := occ.PendingAbs()
	// Bounded: the drain debt at the end is within a small number of
	// per-port updates, not proportional to the whole run.
	bounded := pending < 64*60*4
	return []string{
		fmt.Sprintf("%.0f", stale.Mean()),
		fmt.Sprintf("%.0f", stale.Max()),
		d(pending),
		d(m.MaxLag),
		yn(bounded),
	}
}
