package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "fig4", Paper: "Figure 4 (SUME Event Switch at line rate)", Run: Fig4})
}

// Fig4 demonstrates the paper's §5 feasibility claim on the Figure 4
// datapath model: with every event source active (enqueue/dequeue taps,
// timers, a packet generator, link monitoring) the switch still forwards
// minimum-size packets arriving at 100% of line rate on all four ports,
// because event metadata piggybacks on packet slots and empty packets
// are only injected on idle cycles.
func Fig4(env *Env) *Result {
	res := &Result{
		ID:    "fig4",
		Title: "Line-rate forwarding with all event sources active (paper Fig 4, §5)",
		Cols: []string{"arch", "frame size", "offered load", "delivered", "empty slots",
			"events merged", "event FIFO drops"},
	}
	const horizon = 4 * sim.Millisecond
	type point struct {
		mode string
		size int
	}
	var grid []point
	for _, mode := range []string{"baseline", "event-driven"} {
		for _, size := range []int{60, 576, 1514} {
			grid = append(grid, point{mode, size})
		}
	}
	rows := RunParallel(env, len(grid), func(trial int) []string {
		pt := grid[trial]
		st, offered, delivered := runLineRate(env, pt.mode, pt.size, 1.0, horizon)
		var merged, fifoDrops uint64
		for k := 0; k < events.NumKinds; k++ {
			if !events.Kind(k).IsPacketEvent() {
				merged += st.EventsMerged[k]
			}
			fifoDrops += st.EventsDropped[k]
		}
		return []string{pt.mode, fmt.Sprintf("%dB", pt.size), "100%",
			pct(float64(delivered), float64(offered)),
			d(st.EmptySlots), d(merged), d(fifoDrops)}
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("delivered counts packets out vs packets offered over a %v run (in-flight tail excluded)", horizon)
	res.Notef("event support must not reduce the delivered fraction at any frame size")
	return res
}

// runLineRate drives all 4 ports at the given load with fixed-size
// frames through a forwarding program, with the full event machinery
// active in event-driven mode. It returns the switch stats plus offered
// and delivered packet counts.
func runLineRate(env *Env, mode string, size int, load float64, horizon sim.Time) (core.Stats, uint64, uint64) {
	sched := sim.NewScheduler()
	arch := core.Baseline()
	if mode == "event-driven" {
		arch = core.EventDriven()
	}
	sw := env.newSwitch(core.Config{Overspeed: 1.1}, arch, sched)

	prog := pisa.NewProgram("linerate")
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		// Port pairing 0<->1, 2<->3 keeps every egress exactly at its
		// ingress rate.
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	if mode == "event-driven" {
		occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
			events.BufferEnqueue, events.BufferDequeue))
		prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
		})
		prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
		})
		prog.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {})
		prog.HandleFunc(events.PacketTransmitted, func(ctx *pisa.Context) {})
		prog.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) {
			// Generated reports leave on port 0's pair too; they add
			// (tiny) extra load on top of 100%.
			ctx.EgressPort = 0
		})
	}
	sw.MustLoad(prog)
	if mode == "event-driven" {
		mustOK(sw.ConfigureTimer(0, 100*sim.Microsecond))
		mustOK(sw.AddGenerator(sim.Millisecond, func(seq uint64) ([]byte, int) {
			return packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1),
				&packet.Report{Kind: packet.ReportBufferSample, Seq: uint32(seq)}), -1
		}))
	}

	rng := sim.NewRNG(99)
	var gens []*workload.Gen
	for port := 0; port < 4; port++ {
		port := port
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(port, d) })
		fl := packet.Flow{
			Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP,
		}
		g.StartSaturate(workload.SaturateConfig{
			Flow: fl, Rate: 10 * sim.Gbps, Load: load, Size: size, Until: horizon,
		})
		gens = append(gens, g)
	}
	// Silence the event sources at the horizon, then run on so queued
	// tail packets drain.
	sched.At(horizon, func() {
		sw.StopGenerators()
		sw.StopTimer(0)
	})
	sched.Run(horizon + 2*sim.Millisecond)
	mustConserve(sw)

	st := sw.Stats()
	var offered uint64
	for _, g := range gens {
		offered += g.SentPackets
	}
	return st, offered, st.TxPackets - st.Generated
}
