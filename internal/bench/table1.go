package bench

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "table1", Paper: "Table 1 (the thirteen data-plane events)", Run: Table1})
}

// Table1 demonstrates every event kind of the paper's Table 1 firing on
// the SUME Event Switch model and being handled by a program, with the
// per-kind counts observed during a single scenario.
func Table1(env *Env) *Result {
	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{QueueCapBytes: 4000}, core.EventDriven(), sched)

	counts := make([]uint64, events.NumKinds)
	prog := pisa.NewProgram("table1")
	for k := 0; k < events.NumKinds; k++ {
		k := events.Kind(k)
		prog.Handle(k, pisa.ControlFunc(func(ctx *pisa.Context) {
			counts[k]++
			switch k {
			case events.IngressPacket:
				// Recirculate the first packet once, then forward to a
				// port; raise a user event for every 5th packet.
				if ctx.Pkt.Recirc == 0 && counts[events.IngressPacket] == 1 {
					ctx.Recirculate = true
					return
				}
				if counts[events.IngressPacket]%5 == 0 {
					ctx.RaiseUser(counts[events.IngressPacket])
				}
				ctx.EgressPort = 1
			case events.RecirculatedPacket, events.GeneratedPacket:
				ctx.EgressPort = 1
			}
		}))
	}
	sw.MustLoad(prog)

	// Sources for the non-packet events.
	mustOK(sw.ConfigureTimer(0, 50*sim.Microsecond))
	mustOK(sw.AddGenerator(120*sim.Microsecond, func(seq uint64) ([]byte, int) {
		return packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1),
			&packet.Probe{TorID: 1, Seq: uint32(seq)}), -1
	}))
	sched.At(200*sim.Microsecond, func() { sw.SetLink(3, false) })
	sched.At(400*sim.Microsecond, func() { sw.SetLink(3, true) })
	sched.At(300*sim.Microsecond, func() { sw.TriggerControlEvent(42) })

	// Traffic: enough to enqueue/dequeue, plus a burst that overflows
	// the 4000-byte queue (BufferOverflow) and then drains to empty
	// (BufferUnderflow).
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	for i := 0; i < 30; i++ {
		sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1000}))
	}
	sched.Run(2 * sim.Millisecond)
	mustConserve(sw)

	res := &Result{
		ID:    "table1",
		Title: "Data-plane events supported and observed (paper Table 1)",
		Cols:  []string{"event", "baseline exposes", "event-driven exposes", "observed"},
	}
	base := core.Baseline()
	ev := core.EventDriven()
	for k := 0; k < events.NumKinds; k++ {
		kind := events.Kind(k)
		res.AddRow(kind.String(), yn(base.Supports(kind)), yn(ev.Supports(kind)), d(counts[k]))
	}
	for k := 0; k < events.NumKinds; k++ {
		if counts[k] == 0 {
			res.Notef("MISSING: %v never fired", events.Kind(k))
		}
	}
	res.Notef("all %d event kinds fired in one 2ms scenario on the event-driven architecture", events.NumKinds)
	return res
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}
