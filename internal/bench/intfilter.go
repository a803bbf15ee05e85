package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "intfilter", Paper: "§3 Network Monitoring: event-driven reduction of INT report volume", Run: INTFilter})
}

// INTFilter quantifies the paper's §3 monitoring claim: "data-plane
// applications can analyze, pre-process and reduce the amount of data
// reports ... use timer events to aggregate congestion information ...
// and only report anomalous events to the monitoring system".
//
// The baseline INT approach reports per packet (or at best per fixed
// interval regardless of content); the event-driven filter aggregates
// buffer activity per timer interval and reports only anomalies. We run
// steady traffic with a handful of injected surges and drop bursts, and
// compare the report volume each design sends to the monitor against
// the anomalies it conveys.
func INTFilter(env *Env) *Result {
	const horizon = 200 * sim.Millisecond
	const interval = sim.Millisecond

	sched := sim.NewScheduler()
	sw := env.newSwitch(core.Config{QueueCapBytes: 64 << 10}, core.EventDriven(), sched)
	tl, prog := apps.NewTelemetry(apps.TelemetryConfig{
		SwitchID: 1, EgressPort: 1, ReportPort: 3,
	})
	sw.MustLoad(prog)
	mustOK(tl.Arm(sw, interval))

	var reportsOnWire uint64
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port == 3 {
			reportsOnWire++
		}
	}

	// Steady background plus 5 surges at known times.
	rng := sim.NewRNG(8)
	base := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	base.StartCBR(workload.CBRConfig{
		Flow: packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP},
		Size: workload.FixedSize(800), Rate: 100 * sim.Mbps, Until: horizon,
	})
	const surges = 5
	for i := 0; i < surges; i++ {
		at := sim.Time(i+1) * 30 * sim.Millisecond
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
		sched.At(at, func() {
			g.StartCBR(workload.CBRConfig{
				Flow: packet.Flow{Src: packet.IP4(10, 0, 0, 9), Dst: packet.IP4(10, 1, 0, 1),
					SrcPort: 9, DstPort: 2, Proto: packet.ProtoUDP},
				Size: workload.FixedSize(1500), Rate: 2 * sim.Gbps, Until: at + 2*sim.Millisecond,
			})
		})
	}
	sched.Run(horizon + 5*sim.Millisecond)
	mustConserve(sw)

	// The unfiltered alternatives, computed from the same run.
	perPacket := sw.Stats().RxPackets // classic INT: one report per packet
	perInterval := tl.Intervals       // naive periodic export
	filtered := reportsOnWire         // the event-driven filter

	res := &Result{
		ID:    "intfilter",
		Title: "INT report volume: per-packet vs periodic vs event-driven filter (paper §3)",
		Cols:  []string{"design", "reports to monitor", "vs per-packet", "surges detected"},
	}
	res.AddRow("per-packet INT", d(perPacket), "1x", fmt.Sprintf("%d (buried)", surges))
	res.AddRow("periodic export (1ms)", d(perInterval),
		fmt.Sprintf("%.4fx", float64(perInterval)/float64(perPacket)), fmt.Sprintf("%d (buried)", surges))
	res.AddRow("event-driven filter", d(filtered),
		fmt.Sprintf("%.6fx", float64(filtered)/float64(perPacket)), d(tl.Reports))
	res.Notef("workload: 100 Mb/s steady + %d short 2 Gb/s surges over %v; aggregation interval %v", surges, horizon, interval)
	res.Notef("the filter suppressed %d quiet intervals and reported %d anomalous ones (%.0fx reduction over periodic export)",
		tl.Suppressed, tl.Reports, tl.ReductionRatio())
	return res
}
