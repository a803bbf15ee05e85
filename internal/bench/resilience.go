package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/controlplane"
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
	register(Experiment{
		ID:    "resilience",
		Paper: "§3/§5 fast re-route: failover convergence under link-flap storms, event-driven vs control plane",
		Run:   ResilienceBench,
	})
}

// resilienceTrial is one sweep point: failover mode × flap rate, plus
// optional event-queue capacity rows that stress the coalescing policy.
type resilienceTrial struct {
	eventDriven bool
	period      sim.Time // flap cadence
	evqDepth    int      // 0 = architecture default
}

// ResilienceBench quantifies the paper's resilience claim (§5: "when a
// link failure is detected, the prototype updates its forwarding
// decisions immediately"): a fast re-router either sees LinkStatusChange
// in the data plane (event-driven architecture) or learns port state a
// control-channel latency late (baseline architecture + agent). A
// deterministic flap storm from internal/faults sweeps the flap rate;
// the measurements are packets lost during recovery and time to the
// first backup-path transmit after each failure.
//
// The tail rows rerun the fastest storm with the LinkStatusChange FIFO
// shrunk to 2 and then 1 entries: per-port coalescing keeps the final
// link state intact, so the re-router stays correct with a queue a
// storm would otherwise overflow.
func ResilienceBench(env *Env) *Result {
	res := &Result{
		ID:    "resilience",
		Title: "fast re-route under flap storms: event-driven FRR vs delayed control plane",
		Cols: []string{"mode", "flap period", "flaps", "failovers",
			"sent", "delivered", "lost", "lost/flap", "reroute time"},
	}
	var trials []resilienceTrial
	for _, p := range []sim.Time{
		200 * sim.Microsecond, 500 * sim.Microsecond,
		sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond,
	} {
		trials = append(trials,
			resilienceTrial{eventDriven: true, period: p},
			resilienceTrial{eventDriven: false, period: p},
		)
	}
	trials = append(trials,
		resilienceTrial{eventDriven: true, period: 200 * sim.Microsecond, evqDepth: 2},
		resilienceTrial{eventDriven: true, period: 200 * sim.Microsecond, evqDepth: 1},
	)

	rows := RunParallel(env, len(trials), func(trial int) []string {
		tr := trials[trial]
		m := runResilience(env, tr, TrialSeed(0x5e511, trial))
		mode := "control plane"
		if tr.eventDriven {
			mode = "event-driven"
			if tr.evqDepth > 0 {
				mode = fmt.Sprintf("event-driven (evq=%d)", tr.evqDepth)
			}
		}
		return []string{
			mode, tr.period.String(), d(m.flaps), d(m.failovers),
			d(m.sent), d(m.delivered), d(m.lost),
			fmt.Sprintf("%.2f", float64(m.lost)/float64(m.flaps)),
			m.reroute.String(),
		}
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("storm: primary link down 100us per flap over a 25ms window; CBR source at one 200B packet per ~5.6us")
	res.Notef("control plane: baseline architecture, port state applied via a 1.3ms-latency agent (netsim OnLinkChange -> FRR.SetPortState)")
	res.Notef("reroute time: mean gap from each failure to the first backup-path transmit")
	res.Notef("evq rows: LinkStatusChange FIFO shrunk under the same storm; CoalescePort keeps state correct with zero event drops")
	res.Notef("every trial passes faults.Audit packet/event conservation")
	return res
}

// fwdProgram forwards every ingress packet to one port.
func fwdProgram(port int) *pisa.Program {
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = port })
	return p
}

// resilienceMetrics is one trial's measurement.
type resilienceMetrics struct {
	flaps, failovers      int
	sent, delivered, lost uint64
	reroute               sim.Time
}

// runResilience builds src -- frr =(primary/backup)= sink -- dst, arms
// the flap storm on the primary, and measures loss and re-route latency.
func runResilience(env *Env, tr resilienceTrial, seed uint64) resilienceMetrics {
	const (
		horizon    = 30 * sim.Millisecond
		stormStart = sim.Millisecond
		stormSpan  = 25 * sim.Millisecond
		downTime   = 100 * sim.Microsecond
	)
	// Two switches, so at most two domains: frr | sink. The storm arms
	// scheduled per-side link changes that work across the domain
	// boundary; all measurement hooks (link-change observer, transmit
	// tap, control-plane agent) live on frr's domain.
	net, schedFor := env.fabric(env.domains(), 2, false, roundRobin)
	sched, sinkSched := schedFor(0), schedFor(1)

	arch := core.EventDriven()
	if !tr.eventDriven {
		arch = core.Baseline()
	}
	cfg := core.Config{Name: "frr"}
	if tr.evqDepth > 0 {
		cfg.EventQueueDepth = tr.evqDepth
	}
	frrSw := env.newSwitch(cfg, arch, sched)
	fl := packet.Flow{
		Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 2),
		SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	dstIdx := int(uint32(fl.Dst) >> 16)
	r, prog := apps.NewFRR(apps.FRRConfig{
		Primary:      map[int]int{dstIdx: 1},
		Backup:       map[int]int{dstIdx: 2},
		NoLinkEvents: !tr.eventDriven,
	})
	frrSw.MustLoad(prog)

	sink := env.newSwitch(core.Config{Name: "sink"}, core.Baseline(), sinkSched)
	sink.MustLoad(fwdProgram(2))
	net.AddSwitch(frrSw)
	net.AddSwitch(sink)
	src := net.NewHost("src", fl.Src)
	dst := net.NewHost("dst", fl.Dst)
	net.Attach(src, frrSw, 0, 0)
	primary := net.Connect(frrSw, 1, sink, 0, 500*sim.Nanosecond)
	net.Connect(frrSw, 2, sink, 1, 500*sim.Nanosecond)
	net.Attach(dst, sink, 2, 0)

	// The baseline's only path to port state: an out-of-band observer
	// feeding a control-plane agent with a fixed 1.3ms apply latency
	// (deliberately not a multiple of any swept flap period, so the
	// stale view never phase-locks with the storm).
	var agent *controlplane.Agent
	if !tr.eventDriven {
		agent = controlplane.New(sched, sim.NewRNG(seed))
		agent.Latency = 1300 * sim.Microsecond
		agent.Jitter = 0
		net.OnLinkChange = func(l *netsim.Link, up bool) {
			if l == primary {
				agent.Do(1, func() { r.SetPortState(1, up) })
			}
		}
	}

	// Re-route latency probes: Fail times from the storm, first
	// backup-path transmit after each.
	var failAt, backupTx []sim.Time
	prevHook := net.OnLinkChange
	net.OnLinkChange = func(l *netsim.Link, up bool) {
		if l == primary && !up {
			failAt = append(failAt, sched.Now())
		}
		if prevHook != nil {
			prevHook(l, up)
		}
	}
	net.TapTransmit(frrSw, func(port int, _ []byte) {
		if port == 2 {
			backupTx = append(backupTx, sched.Now())
		}
	})

	flaps := int(stormSpan / tr.period)
	faults.FlapStorm(net, primary, stormStart, tr.period, downTime, flaps)

	// 200B frames at 320 Mb/s: one packet per ~5.6us, so a 100us outage
	// holds ~18 packets' worth of traffic hostage.
	gen := workload.NewGen(sched, sim.NewRNG(seed+1), func(d []byte) { src.Send(d) })
	gen.StartCBR(workload.CBRConfig{
		Flow: fl, Size: workload.FixedSize(200),
		Rate: 320 * sim.Mbps, Until: horizon - 2*sim.Millisecond,
	})
	net.Run(horizon)

	faults.MustAudit(net)

	m := resilienceMetrics{
		flaps:     flaps,
		failovers: int(r.Failovers),
		sent:      net.Links()[0].Sent(),
		delivered: dst.RxPackets,
	}
	m.lost = m.sent - m.delivered
	// Mean time from each failure to the first backup-path transmit
	// before the next failure.
	var total sim.Time
	var counted int
	for i, f := range failAt {
		limit := horizon
		if i+1 < len(failAt) {
			limit = failAt[i+1]
		}
		for _, tx := range backupTx {
			if tx >= f && tx < limit {
				total += tx - f
				counted++
				break
			}
		}
	}
	if counted > 0 {
		m.reroute = total / sim.Time(counted)
	}
	return m
}
