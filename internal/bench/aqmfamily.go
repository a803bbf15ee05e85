package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "aqm", Paper: "§3 Traffic Management: the AQM family (RED, AFD, FRED, PIE) on event-driven signals", Run: AQMFamily})
}

// AQMFamily runs the four AQM algorithms the paper names — RED, AFD,
// FRED and PIE — plus a tail-drop baseline on one shared scenario: a
// 12 Gb/s hog and a 100 Mb/s mouse into one 10 Gb/s egress. Every AQM
// consumes congestion signals that only buffer events provide (paper §3:
// "AQM is a natural use case of this approach, and was one of the
// motivating applications for our work").
func AQMFamily(env *Env) *Result {
	res := &Result{
		ID:    "aqm",
		Title: "AQM algorithms on event-derived congestion signals (paper §3)",
		Cols: []string{"policy", "mean queue (KB)", "mouse delivery", "hog delivery",
			"link utilization"},
	}
	policies := []string{"tail-drop", "RED", "PIE", "AFD", "FRED"}
	rows := RunParallel(env, len(policies), func(trial int) []string {
		return append([]string{policies[trial]}, runAQM(env, policies[trial])...)
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("scenario: 12 Gb/s hog (1500B) + 100 Mb/s mouse (300B) into one 10G egress for 50ms; 1MB buffer")
	res.Notef("tail-drop fills the whole buffer (max delay) and drops whatever arrives at the brim, mouse included")
	res.Notef("the AQMs keep the queue near their setpoints and protect (AFD/FRED) or statistically spare (RED/PIE) the mouse")
	return res
}

func runAQM(env *Env, policy string) []string {
	const horizon = 50 * sim.Millisecond
	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{QueueCapBytes: 1 << 20}, core.EventDriven(), sched)

	var prog *pisa.Program
	switch policy {
	case "tail-drop":
		prog = pisa.NewProgram("taildrop")
		prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	case "RED":
		_, p := apps.NewRED(apps.REDConfig{
			MinThresh: 20000, MaxThresh: 60000, MaxP256: 128, EgressPort: 1,
		}, sim.NewRNG(11))
		prog = p
	case "PIE":
		pie, p := apps.NewPIE(apps.PIEConfig{
			EgressPort: 1, TargetDelay: 50 * sim.Microsecond, Update: sim.Millisecond,
		}, sim.NewRNG(12))
		prog = p
		defer func() { _ = pie }()
	case "AFD":
		_, p := apps.NewAFD(apps.AFDConfig{
			EgressPort: 1, Slots: 512, Interval: sim.Millisecond, TargetBytes: 40000,
		}, sim.NewRNG(13))
		prog = p
	case "FRED":
		_, p := apps.NewFRED(apps.FREDConfig{
			Slots: 512, MinQBytes: 3000, TotalLimit: 40000, EgressPort: 1, ReportPort: -1,
		})
		prog = p
	}
	sw.MustLoad(prog)
	if prog.Handles(events.TimerExpiration) {
		mustOK(sw.ConfigureTimer(0, sim.Millisecond))
	}

	hog := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 80, Proto: packet.ProtoUDP}
	mouse := packet.Flow{Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 2, DstPort: 80, Proto: packet.ProtoUDP}
	mouseHash := mouse.Hash()

	var mouseTx, hogTx, txBytes uint64
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		txBytes += uint64(pkt.Len()) + core.WireOverhead
		if f, ok := packet.FlowOf(pkt.Data); ok {
			if f.Hash() == mouseHash {
				mouseTx++
			} else {
				hogTx++
			}
		}
	}
	rng := sim.NewRNG(14)
	gh := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	gh.StartCBR(workload.CBRConfig{Flow: hog, Size: workload.FixedSize(1500),
		Rate: 12 * sim.Gbps, Until: horizon})
	gm := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
	gm.StartCBR(workload.CBRConfig{Flow: mouse, Size: workload.FixedSize(300),
		Rate: 100 * sim.Mbps, Until: horizon})

	queue := sim.NewStats()
	sched.Every(100*sim.Microsecond, func() {
		queue.Add(float64(sw.TM().PortBytes(1)))
	})
	sched.Run(horizon)
	mustConserve(sw)

	util := float64(txBytes) * 8 / horizon.Seconds() / float64(10*sim.Gbps)
	return []string{
		fmt.Sprintf("%.0f", queue.Mean()/1024),
		pct(float64(mouseTx), float64(gm.SentPackets)),
		pct(float64(hogTx), float64(gh.SentPackets)),
		fmt.Sprintf("%.1f%%", 100*util),
	}
}
