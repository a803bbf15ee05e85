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
	register(Experiment{ID: "tofino", Paper: "§6: emulating dequeue events by recirculation on today's devices", Run: Tofino})
}

// Tofino quantifies the paper's §6 observation: a Tofino-class baseline
// device can *emulate* dequeue events by recirculating a notification
// from egress back into the ingress pipeline — but the emulation spends
// pipeline slots and recirculation-port bandwidth that native event
// support does not.
//
// Both designs track per-port buffer occupancy. The native design uses
// enqueue/dequeue events. The emulation adds occupancy at ingress
// admission and, in the PSA egress pipeline, emits a 60B
// dequeue-notification frame through a loopback (recirculation) port
// that the ingress pipeline consumes to subtract. We sweep the offered
// load and report data delivery and how many dequeue updates survive the
// recirculation path.
func Tofino(env *Env) *Result {
	res := &Result{
		ID:    "tofino",
		Title: "Native events vs recirculation emulation of dequeue events (paper §6)",
		Cols: []string{"design", "load", "data delivered", "deq updates applied",
			"occupancy mean |err| (B)"},
	}
	type point struct {
		load float64
		mode string
	}
	var grid []point
	for _, load := range []float64{0.25, 0.50, 0.90} {
		for _, mode := range []string{"native-events", "recirc-emulation"} {
			grid = append(grid, point{load, mode})
		}
	}
	rows := RunParallel(env, len(grid), func(trial int) []string {
		pt := grid[trial]
		delivered, applied, err := runTofino(env, pt.mode, pt.load)
		return []string{pt.mode, fmt.Sprintf("%.0f%%", pt.load*100),
			delivered, applied, fmt.Sprintf("%.0f", err)}
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("4 data ports of min-size frames + one dedicated recirculation port (port 4)")
	res.Notef("the emulation's dequeue notifications compete for pipeline slots and for the")
	res.Notef("recirculation port's line rate: beyond ~25%% data load they overflow and occupancy drifts")
	res.Notef("native event metadata rides existing slots: full delivery and every update applied at any load")
	return res
}

func runTofino(env *Env, mode string, load float64) (delivered, applied string, meanErr float64) {
	const horizon = 3 * sim.Millisecond
	const recircPort = 4
	sched := sim.NewScheduler()

	arch := core.EventDriven()
	if mode == "recirc-emulation" {
		arch = core.Baseline()
	}
	sw := env.newSwitch(core.Config{Ports: 5, Overspeed: 1.1, QueueCapBytes: 256 << 10}, arch, sched)

	prog := pisa.NewProgram(mode)
	occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 8,
		events.BufferEnqueue, events.BufferDequeue))
	var deqApplied, deqExpected uint64

	if mode == "native-events" {
		prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
			ctx.EgressPort = ctx.Pkt.InPort ^ 1
		})
		prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
		})
		prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
			deqApplied++
			occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
		})
	} else {
		prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
			// Recirculated dequeue notification?
			if ctx.Pkt.InPort == recircPort && ctx.Has(packet.LayerReport) {
				rep := ctx.Parsed.Report
				deqApplied++
				occ.Add(ctx, uint32(rep.V1), -int64(rep.V0))
				ctx.Drop()
				return
			}
			// Data packet: account the "enqueue" at ingress admission —
			// the only place the baseline ingress pipeline can.
			out := ctx.Pkt.InPort ^ 1
			occ.Add(ctx, uint32(out), int64(ctx.Pkt.Len()))
			ctx.EgressPort = out
		})
		// PSA egress pipeline: emit the dequeue notification into the
		// recirculation port.
		prog.HandleFunc(events.EgressPacket, func(ctx *pisa.Context) {
			if ctx.Ev.Port == recircPort {
				return // notifications themselves are not re-notified
			}
			rep := &packet.Report{
				Kind: packet.ReportBufferSample,
				V0:   uint64(ctx.Pkt.Len()),
				V1:   uint32(ctx.Ev.Port),
			}
			ctx.Emit(packet.BuildControlFrame(packet.Broadcast,
				packet.MACFromUint64(9), rep), recircPort)
		})
	}
	mustOK(sw.Load(prog))

	// External loopback on the recirculation port; count data
	// deliveries directly.
	var dataTx uint64
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port == recircPort {
			sw.Inject(recircPort, pkt.Data)
			return
		}
		dataTx++
	}

	// Min-size data on ports 0-3 (paired 0<->1, 2<->3).
	rng := sim.NewRNG(21)
	var gens []*workload.Gen
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
		gens = append(gens, g)
	}

	// Sample occupancy error against the TM ground truth.
	errStat := sim.NewStats()
	sched.Every(50*sim.Microsecond, func() {
		for port := uint32(0); port < 4; port++ {
			est := float64(int64(occ.Stale(port)))
			truth := float64(sw.TM().PortBytes(int(port)))
			errStat.Add(math.Abs(est - truth))
		}
	})

	sched.Run(horizon + 2*sim.Millisecond)

	var offered uint64
	for _, g := range gens {
		offered += g.SentPackets
	}
	deqExpected = dataTx // one dequeue per delivered data packet

	delivered = pct(float64(dataTx), float64(offered))
	applied = pct(float64(deqApplied), float64(deqExpected))
	return delivered, applied, errStat.Mean()
}
