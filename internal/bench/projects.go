package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "projects", Paper: "§5 student projects (liveness, flow rate, congestion signals, FRR)", Run: Projects})
}

// Projects reproduces the four §5 student applications end-to-end and
// reports each one's headline measurement.
func Projects(env *Env) *Result {
	res := &Result{
		ID:    "projects",
		Title: "The four §5 student projects on the SUME Event Switch model",
		Cols:  []string{"project", "measurement", "value"},
	}

	// 1. Liveness monitoring: detection latency after a neighbor dies.
	{
		sched := sim.NewScheduler()
		net := netsim.New(sched)
		mon := env.newSwitch(core.Config{Name: "monitor"}, core.EventDriven(), sched)
		nbr := env.newSwitch(core.Config{Name: "neighbor"}, core.EventDriven(), sched)
		period := sim.Millisecond
		lv, prog := apps.NewLiveness(apps.LivenessConfig{
			SwitchID: 1, ProbePorts: []int{1}, Period: period, DeadAfter: 3, MonitorPort: 0,
		})
		mon.MustLoad(prog)
		nbr.MustLoad(apps.EchoResponder(2, 0))
		net.AddSwitch(mon)
		net.AddSwitch(nbr)
		link := net.Connect(mon, 1, nbr, 1, 10*sim.Microsecond)
		mustOK(lv.Arm(mon))
		failAt := 20 * sim.Millisecond
		sched.At(failAt, func() { net.Fail(link) })
		sched.Run(60 * sim.Millisecond)
		faults.MustAudit(net)
		if len(lv.Notifications) == 1 {
			latency := lv.Notifications[0].At - failAt
			res.AddRow("Liveness monitoring", "failure detection latency", latency.String())
			res.AddRow("Liveness monitoring", "control-plane involvement", "none (data-plane echoes + report)")
		} else {
			res.AddRow("Liveness monitoring", "FAILED", fmt.Sprintf("%d notifications", len(lv.Notifications)))
		}
	}

	// 2. Time-windowed flow-rate measurement accuracy.
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{}, core.EventDriven(), sched)
		fr, prog := apps.NewFlowRate(apps.FlowRateConfig{Slots: 64, Buckets: 10, EgressPort: 1})
		sw.MustLoad(prog)
		mustOK(fr.Arm(sw, sim.Millisecond))
		rng := sim.NewRNG(2)
		targets := []float64{1e6, 4e6, 16e6} // bytes/s
		var flows []packet.Flow
		for i, target := range targets {
			fl := packet.Flow{
				Src: packet.IP4(10, 0, 0, byte(10+i)), Dst: packet.IP4(10, 1, 0, 1),
				SrcPort: uint16(2000 + i), DstPort: 80, Proto: packet.ProtoUDP,
			}
			flows = append(flows, fl)
			g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(i%4, d) })
			// Offered rate includes 24B wire overhead per 1000B frame.
			g.StartCBR(workload.CBRConfig{
				Flow: fl, Size: workload.FixedSize(1000),
				Rate: sim.Rate(target*8) * (1000 + 24) / 1000, Until: 50 * sim.Millisecond,
			})
		}
		sched.Run(50 * sim.Millisecond)
		mustConserve(sw)
		worst := 0.0
		for i, fl := range flows {
			got := fr.Rate(fr.SlotOf(fl.Hash()))
			relErr := (got - targets[i]) / targets[i]
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > worst {
				worst = relErr
			}
		}
		res.AddRow("Time-windowed flow rate", "worst relative error (1/4/16 MB/s flows)", pct(worst, 1))
	}

	// 3. Congestion signals (FRED-like AQM): fairness between a hog and
	// a mouse sharing one egress.
	{
		sched := sim.NewScheduler()
		sw := env.newSwitch(core.Config{QueueCapBytes: 1 << 20}, core.EventDriven(), sched)
		fr, prog := apps.NewFRED(apps.FREDConfig{
			Slots: 256, MinQBytes: 3000, TotalLimit: 30000, EgressPort: 1, ReportPort: -1,
		})
		sw.MustLoad(prog)
		mustOK(fr.Arm(sw, sim.Millisecond))
		rng := sim.NewRNG(3)
		hog := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
		mouse := packet.Flow{Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}
		gh := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
		gh.StartCBR(workload.CBRConfig{Flow: hog, Size: workload.FixedSize(1500), Rate: 12 * sim.Gbps, Until: 20 * sim.Millisecond})
		gm := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
		gm.StartCBR(workload.CBRConfig{Flow: mouse, Size: workload.FixedSize(300), Rate: 200 * sim.Mbps, Until: 20 * sim.Millisecond})
		mouseSlot := uint32(mouse.Hash() % 256)
		var mouseTx, hogTx uint64
		sw.OnTransmit = func(port int, pkt *packet.Packet) {
			if f, ok := packet.FlowOf(pkt.Data); ok {
				if uint32(f.Hash()%256) == mouseSlot {
					mouseTx++
				} else {
					hogTx++
				}
			}
		}
		sched.Run(25 * sim.Millisecond)
		mustConserve(sw)
		res.AddRow("Congestion signals (AQM)", "hog packets dropped by policy", d(fr.Dropped))
		res.AddRow("Congestion signals (AQM)", "mouse delivery", pct(float64(mouseTx), float64(gm.SentPackets)))
		res.AddRow("Congestion signals (AQM)", "active-flow estimate at end", d(fr.ActiveFlows()))
	}

	// 4. Fast re-route: packets lost between failure and re-route.
	{
		sched := sim.NewScheduler()
		net := netsim.New(sched)
		s1 := env.newSwitch(core.Config{Name: "s1"}, core.EventDriven(), sched)
		s2 := env.newSwitch(core.Config{Name: "s2"}, core.EventDriven(), sched)
		s3 := env.newSwitch(core.Config{Name: "s3"}, core.EventDriven(), sched)
		fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
		dst := int(uint32(fl.Dst) >> 16)
		r, prog := apps.NewFRR(apps.FRRConfig{
			Primary: map[int]int{dst: 1},
			Backup:  map[int]int{dst: 2},
		})
		s1.MustLoad(prog)
		s2.MustLoad(forwardAllTo(3))
		s3.MustLoad(forwardAllTo(3))
		net.AddSwitch(s1)
		net.AddSwitch(s2)
		net.AddSwitch(s3)
		sink := net.NewHost("sink", fl.Dst)
		src := net.NewHost("src", fl.Src)
		net.Attach(src, s1, 0, 0)
		primary := net.Connect(s1, 1, s2, 0, 10*sim.Microsecond)
		net.Connect(s1, 2, s3, 0, 10*sim.Microsecond)
		net.Attach(sink, s2, 3, 0)
		// s3's port 3 also reaches the sink in a real topology; attach a
		// second sink interface via s3.
		sink2 := net.NewHost("sink2", fl.Dst)
		net.Attach(sink2, s3, 3, 0)

		rng := sim.NewRNG(4)
		g := workload.NewGen(sched, rng, func(d []byte) { src.Send(d) })
		g.StartCBR(workload.CBRConfig{Flow: fl, Size: workload.FixedSize(500), Rate: sim.Gbps, Until: 20 * sim.Millisecond})
		failAt := 10 * sim.Millisecond
		sched.At(failAt, func() { net.Fail(primary) })
		sched.Run(25 * sim.Millisecond)
		faults.MustAudit(net)
		delivered := sink.RxPackets + sink2.RxPackets
		lost := g.SentPackets - delivered
		res.AddRow("Fast re-route", "packets lost at failover", d(lost))
		res.AddRow("Fast re-route", "failovers / backup-routed packets",
			fmt.Sprintf("%d / %d", r.Failovers, r.RoutedBackup))
	}

	res.Notef("liveness detection latency = (DeadAfter+1) probe periods after failure, with zero control traffic")
	res.Notef("fast re-route loses only packets already in flight on the failed link at the instant of failure")
	return res
}

// forwardAllTo returns a trivial program forwarding everything to port.
func forwardAllTo(port int) *pisa.Program {
	p := pisa.NewProgram("fwd-all")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = port })
	return p
}
