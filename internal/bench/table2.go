package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "table2", Paper: "Table 2 (application classes)", Run: Table2})
}

// Table2 runs one representative application per class of the paper's
// Table 2 end-to-end and reports the events each one actually used plus a
// headline outcome, substantiating the class -> events mapping.
func Table2(env *Env) *Result {
	res := &Result{
		ID:    "table2",
		Title: "Application classes and the events they use (paper Table 2)",
		Cols:  []string{"class", "example", "events used", "outcome"},
	}

	// One self-contained scenario per application class; each runs on its
	// own scheduler, so the classes sweep out across workers.
	scenarios := []func(*Env) []string{
		table2HULA, table2FRR, table2Microburst, table2FRED, table2Cache,
	}
	for _, row := range RunParallel(env, len(scenarios), func(trial int) []string {
		return scenarios[trial](env)
	}) {
		res.AddRow(row...)
	}

	res.Notef("each row ran as its own end-to-end scenario; 'events used' are the kinds the program binds")
	res.Notef("three classes have a further example in internal/apps: INT transit + report filtering (monitoring),")
	res.Notef("RED/PIE/AFD (traffic management) and NetChain-style coordination (in-network computing)")
	return res
}

// table2HULA: Congestion Aware Forwarding — HULA probe selection.
func table2HULA(env *Env) []string {
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{}, core.EventDriven(), sched)
		h, prog := apps.NewHULA(apps.HULAConfig{TorID: 0, UplinkPorts: []int{1, 2}, HostPort: 0, Tors: 2})
		sw.MustLoad(prog)
		mustOK(h.Attach(sw, 200*sim.Microsecond))
		sw.Inject(1, packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(9),
			&packet.Probe{TorID: 1, MaxUtil: 400_000}))
		sw.Inject(2, packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(9),
			&packet.Probe{TorID: 1, MaxUtil: 100_000}))
		sched.Run(2 * sim.Millisecond)
		mustConserve(sw)
		hop, util := h.BestHop(1)
		return []string{"Congestion Aware Fwd", "HULA probes",
			kindsOf(prog),
			fmt.Sprintf("best hop=%d util=%d probes: sent=%d seen=%d", hop, util, h.ProbesSent, h.ProbesSeen)}
	}
}

// table2FRR: Network Management — fast re-route on link failure.
func table2FRR(env *Env) []string {
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{}, core.EventDriven(), sched)
		fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
		dst := int(uint32(fl.Dst) >> 16)
		r, prog := apps.NewFRR(apps.FRRConfig{Primary: map[int]int{dst: 1}, Backup: map[int]int{dst: 2}})
		sw.MustLoad(prog)
		sched.At(sim.Millisecond, func() { sw.SetLink(1, false) })
		for i := 0; i < 20; i++ {
			at := sim.Time(i) * 100 * sim.Microsecond
			sched.At(at, func() { sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 200})) })
		}
		sched.Run(5 * sim.Millisecond)
		mustConserve(sw)
		return []string{"Network Management", "Fast re-route",
			kindsOf(prog),
			fmt.Sprintf("failovers=%d primary=%d backup=%d (0 lost)", r.Failovers, r.RoutedPrimary, r.RoutedBackup)}
	}
}

// table2Microburst: Network Monitoring — microburst detection.
func table2Microburst(env *Env) []string {
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{}, core.EventDriven(), sched)
		mb, prog := apps.NewMicroburst(apps.MicroburstConfig{Slots: 256, ThresholdBytes: 10000, EgressPort: 1})
		sw.MustLoad(prog)
		fl := packet.Flow{Src: packet.IP4(10, 0, 0, 3), Dst: packet.IP4(10, 1, 0, 1),
			SrcPort: 9, DstPort: 2, Proto: packet.ProtoUDP}
		for i := 0; i < 30; i++ {
			at := sim.Time(i) * 300 * sim.Nanosecond
			sched.At(at, func() { sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500})) })
		}
		for i := 0; i < 8; i++ {
			at := 10*sim.Microsecond + sim.Time(i)*3*sim.Microsecond
			sched.At(at, func() { sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500})) })
		}
		sched.Run(5 * sim.Millisecond)
		mustConserve(sw)
		return []string{"Network Monitoring", "Microburst detection",
			kindsOf(prog),
			fmt.Sprintf("detections=%d of culprit flow", len(mb.Detections))}
	}
}

// table2FRED: Traffic Management — FRED-like fair AQM.
func table2FRED(env *Env) []string {
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{QueueCapBytes: 1 << 20}, core.EventDriven(), sched)
		fr, prog := apps.NewFRED(apps.FREDConfig{Slots: 256, MinQBytes: 3000, TotalLimit: 30000, EgressPort: 1, ReportPort: -1})
		sw.MustLoad(prog)
		mustOK(fr.Arm(sw, sim.Millisecond))
		rng := sim.NewRNG(1)
		gen := workload.NewGen(sched, rng, func(d []byte) { sw.Inject(0, d) })
		gen.StartCBR(workload.CBRConfig{
			Flow: packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP},
			Size: workload.FixedSize(1500), Rate: 12 * sim.Gbps, Until: 10 * sim.Millisecond})
		gen2 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
		gen2.StartCBR(workload.CBRConfig{
			Flow: packet.Flow{Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP},
			Size: workload.FixedSize(300), Rate: 200 * sim.Mbps, Until: 10 * sim.Millisecond})
		sched.Run(12 * sim.Millisecond)
		mustConserve(sw)
		return []string{"Traffic Management", "FRED-like AQM",
			kindsOf(prog),
			fmt.Sprintf("dropped=%d passed=%d occupancy samples=%d", fr.Dropped, fr.Passed, len(fr.Samples))}
	}
}

// table2Cache: In-Network Computing — NetCache-style cache.
func table2Cache(env *Env) []string {
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{}, core.EventDriven(), sched)
		c, prog := apps.NewCache(apps.CacheConfig{Ways: 8, ServerPort: 1, ClientPort: 0, AdmitThreshold: 1})
		sw.MustLoad(prog)
		mustOK(c.Arm(sw, sim.Millisecond, 10*sim.Millisecond))
		client := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 9, 0, 1), SrcPort: 7, Proto: packet.ProtoUDP}
		sched.At(sim.Millisecond, func() { sw.Inject(0, apps.BuildCacheRequest(client, apps.CacheGet, 5, 0)) })
		sched.At(sim.Millisecond+100*sim.Microsecond, func() {
			sw.Inject(1, apps.BuildCacheReply(client.Reverse(), 5, 50))
		})
		for i := 0; i < 5; i++ {
			at := 2*sim.Millisecond + sim.Time(i)*sim.Millisecond
			sched.At(at, func() { sw.Inject(0, apps.BuildCacheRequest(client, apps.CacheGet, 5, 0)) })
		}
		sched.Run(10 * sim.Millisecond)
		mustConserve(sw)
		return []string{"In-Network Computing", "NetCache-style cache",
			kindsOf(prog),
			fmt.Sprintf("hits=%d misses=%d (timer-aged LRU)", c.Hits, c.Misses)}
	}
}

// kindsOf summarizes a program's bound event kinds, abbreviated.
func kindsOf(p *pisa.Program) string {
	var names []string
	for _, k := range p.HandledKinds() {
		names = append(names, shortKind(k))
	}
	return strings.Join(names, ",")
}

func shortKind(k events.Kind) string {
	switch k {
	case events.IngressPacket:
		return "Ing"
	case events.EgressPacket:
		return "Egr"
	case events.RecirculatedPacket:
		return "Rec"
	case events.GeneratedPacket:
		return "Gen"
	case events.PacketTransmitted:
		return "Tx"
	case events.BufferEnqueue:
		return "Enq"
	case events.BufferDequeue:
		return "Deq"
	case events.BufferOverflow:
		return "Ovf"
	case events.BufferUnderflow:
		return "Unf"
	case events.TimerExpiration:
		return "Tmr"
	case events.ControlPlaneTriggered:
		return "CP"
	case events.LinkStatusChange:
		return "Lnk"
	case events.UserEvent:
		return "Usr"
	}
	return "?"
}
