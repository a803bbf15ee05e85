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
	register(Experiment{ID: "microburst", Paper: "§2 claim: event-driven microburst detection with >=4x less state", Run: Microburst})
}

// Microburst compares the paper's §2 running example against a
// Snappy-style baseline on identical traffic: heavy-tailed background
// flows plus injected microbursts from known culprit flows. It reports
// detection precision/recall and the stateful memory each design needs —
// the paper claims the event-driven design "reduce[s] the stateful
// requirements at least four-fold".
func Microburst(env *Env) *Result {
	const horizon = 40 * sim.Millisecond
	const threshold = 15000

	type outcome struct {
		name           string
		stateBytes     int
		truePositives  int
		falsePositives int
		bursts         int
	}
	var outcomes []outcome

	runOne := func(mode string) outcome {
		sched := sim.NewScheduler()
		arch := core.EventDriven()
		if mode == "snappy" {
			arch = core.Baseline()
		}
		sw := env.newSwitch(core.Config{QueueCapBytes: 1 << 20}, arch, sched)

		var detections *[]apps.Detection
		var stateBytes int
		var slots int
		if mode == "event" {
			mb, prog := apps.NewMicroburst(apps.MicroburstConfig{
				Slots: 1024, ThresholdBytes: threshold, EgressPort: 1,
			})
			sw.MustLoad(prog)
			detections = &mb.Detections
			stateBytes = mb.StateBytes()
			slots = 1024
		} else {
			sn, prog := apps.NewSnappy(apps.SnappyConfig{
				Snapshots: 4, Rows: 3, Width: 1024, WindowPkts: 256,
				ThresholdBytes: threshold, EgressPort: 1,
			})
			sw.MustLoad(prog)
			detections = &sn.Detections
			stateBytes = sn.StateBytes()
			slots = 1024
		}

		rng := sim.NewRNG(2024)
		// Background: 200 heavy-tailed flows at moderate aggregate load.
		flows := workload.NewFlowSet(200, 1.1, packet.IP4(10, 0, 0, 0))
		bg := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
		bg.StartPoisson(workload.PoissonConfig{
			Flows: flows, MeanGap: 3 * sim.Microsecond, Until: horizon,
		})
		// Culprits: 4 incast bursts from distinct flows at known times.
		// Each burst is 2x20x1500B arriving at line rate on two ports
		// simultaneously (2x oversubscription of the egress), followed
		// by trailer packets while the queue is deep.
		culpritSlots := map[uint32]bool{}
		burst2 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
		burst3 := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(3, d) })
		nBursts := 4
		for b := 0; b < nBursts; b++ {
			fl := packet.Flow{
				Src: packet.IP4(172, 16, byte(b), 1), Dst: packet.IP4(10, 1, 0, 1),
				SrcPort: uint16(7000 + b), DstPort: 80, Proto: packet.ProtoUDP,
			}
			culpritSlots[uint32(fl.Hash()%uint64(slots))] = true
			at := sim.Time(b+1) * 8 * sim.Millisecond
			for _, g := range []*workload.Gen{burst2, burst3} {
				g.ScheduleBurst(workload.BurstConfig{
					Flow: fl, Size: workload.FixedSize(1500), Count: 20,
					Spacing: 1230 * sim.Nanosecond, At: at,
				})
			}
			// Trailers while the burst queue drains.
			for i := 0; i < 12; i++ {
				tAt := at + 26*sim.Microsecond + sim.Time(i)*2*sim.Microsecond
				sched.At(tAt, func() {
					sw.Inject(2, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500}))
				})
			}
		}
		sched.Run(horizon + 5*sim.Millisecond)
		mustConserve(sw)

		o := outcome{name: mode, stateBytes: stateBytes, bursts: nBursts}
		seen := map[uint32]bool{}
		for _, det := range *detections {
			if seen[det.FlowSlot] {
				continue
			}
			seen[det.FlowSlot] = true
			if culpritSlots[det.FlowSlot] {
				o.truePositives++
			} else {
				o.falsePositives++
			}
		}
		return o
	}

	outcomes = append(outcomes, runOne("event"))
	outcomes = append(outcomes, runOne("snappy"))

	res := &Result{
		ID:    "microburst",
		Title: "Microburst culprit detection: event-driven (§2) vs Snappy-style baseline",
		Cols:  []string{"design", "state bytes", "culprits found", "false flows flagged", "recall"},
	}
	for _, o := range outcomes {
		res.AddRow(o.name, d(o.stateBytes),
			fmt.Sprintf("%d/%d", o.truePositives, o.bursts),
			d(o.falsePositives),
			pct(float64(o.truePositives), float64(o.bursts)))
	}
	ratio := float64(outcomes[1].stateBytes) / float64(outcomes[0].stateBytes)
	res.Notef("state ratio snappy/event = %.1fx (paper: 'at least four-fold' reduction)", ratio)
	res.Notef("event design state: 1024-entry 32-bit occupancy register + its two aggregation banks")
	res.Notef("snappy design state: 4 rotating CMS snapshots of 3x1024 32-bit counters")
	return res
}
