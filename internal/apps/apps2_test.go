package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestTelemetrySuppressesQuietIntervals(t *testing.T) {
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	tl, prog := NewTelemetry(TelemetryConfig{
		SwitchID: 7, EgressPort: 1, ReportPort: 3,
	})
	sw.MustLoad(prog)
	if err := tl.Arm(sw, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var reports []packet.Report
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port != 3 {
			return
		}
		var p packet.Parser
		var dec []packet.LayerType
		if p.Decode(pkt.Data, &dec) == nil && len(dec) == 2 && dec[1] == packet.LayerReport {
			reports = append(reports, p.Report)
		}
	}
	// Steady light traffic for 40ms, with one 10x surge at 20-22ms.
	rng := sim.NewRNG(1)
	fl := flowN(1)
	base := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	base.StartCBR(workload.CBRConfig{Flow: fl, Size: workload.FixedSize(1000),
		Rate: 80 * sim.Mbps, Until: 40 * sim.Millisecond})
	surge := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
	sched.At(20*sim.Millisecond, func() {
		surge.StartCBR(workload.CBRConfig{Flow: flowN(2), Size: workload.FixedSize(1000),
			Rate: 800 * sim.Mbps, Until: 22 * sim.Millisecond})
	})
	sched.Run(42 * sim.Millisecond)

	if tl.Reports == 0 {
		t.Fatal("surge not reported")
	}
	if tl.Suppressed < 30 {
		t.Errorf("suppressed = %d of %d intervals; the filter is not reducing",
			tl.Suppressed, tl.Intervals)
	}
	if tl.ReductionRatio() < 5 {
		t.Errorf("reduction ratio = %.1f, want >= 5x", tl.ReductionRatio())
	}
	// Reports must coincide with the surge window.
	for _, r := range reports {
		if r.Kind != packet.ReportAnomaly {
			t.Errorf("report kind = %d", r.Kind)
		}
	}
}

func TestREDDropRampUnderCongestion(t *testing.T) {
	sched := sim.NewScheduler()
	sw := core.New(core.Config{QueueCapBytes: 1 << 20}, core.EventDriven(), sched)
	red, prog := NewRED(REDConfig{
		MinThresh: 15000, MaxThresh: 45000, MaxP256: 128, EgressPort: 1,
	}, sim.NewRNG(5))
	sw.MustLoad(prog)
	// Uncongested phase: 2 Gb/s into 10G — no drops.
	rng := sim.NewRNG(2)
	g1 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	g1.StartCBR(workload.CBRConfig{Flow: flowN(1), Size: workload.FixedSize(1500),
		Rate: 2 * sim.Gbps, Until: 10 * sim.Millisecond})
	sched.Run(11 * sim.Millisecond)
	if red.Dropped != 0 {
		t.Fatalf("dropped %d packets without congestion", red.Dropped)
	}
	passedBefore := red.Passed

	// Congested phase: 14 Gb/s from two ports into 10G.
	g2 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	g2.StartCBR(workload.CBRConfig{Flow: flowN(1), Size: workload.FixedSize(1500),
		Rate: 7 * sim.Gbps, Until: 31 * sim.Millisecond})
	g3 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
	g3.StartCBR(workload.CBRConfig{Flow: flowN(2), Size: workload.FixedSize(1500),
		Rate: 7 * sim.Gbps, Until: 31 * sim.Millisecond})
	sched.Run(35 * sim.Millisecond)

	if red.Dropped == 0 {
		t.Fatal("no RED drops under sustained 1.4x overload")
	}
	if red.Passed == passedBefore {
		t.Fatal("RED dropped everything")
	}
	if red.avg.Value() == 0 && red.MarkedAvgPeak < 15000 {
		t.Errorf("avg occupancy signal never crossed min threshold: peak=%d", red.MarkedAvgPeak)
	}
}
