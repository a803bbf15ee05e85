// Microburst comparison example (paper §2): the same detection task on
// the event-driven architecture (per-flow occupancy from enqueue/dequeue
// events — exact, one register) and on a baseline-PISA Snappy-style
// approximation (rotating sketch snapshots, 4x the state, false
// positives). This is the Go-API version of the quickstart's µP4 program,
// side by side with its baseline.
//
//	go run ./examples/microburst
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

const threshold = 15000

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	fmt.Fprintln(w, "running identical traffic through both detectors...")
	evDet, evState := detect(w, "event")
	snDet, snState := detect(w, "snappy")

	fmt.Fprintf(w, "\n%-22s %-12s %-12s\n", "design", "state bytes", "detections")
	fmt.Fprintf(w, "%-22s %-12d %-12d\n", "event-driven (§2)", evState, evDet)
	fmt.Fprintf(w, "%-22s %-12d %-12d\n", "snappy baseline", snState, snDet)
	fmt.Fprintf(w, "\nstate ratio: %.1fx — the paper's 'at least four-fold' reduction\n",
		float64(snState)/float64(evState))
}

// detect pushes background traffic plus one incast microburst through the
// chosen detector and returns (unique flows flagged, state bytes).
func detect(w io.Writer, mode string) (int, int) {
	sched := sim.NewScheduler()
	arch := core.EventDriven()
	if mode == "snappy" {
		arch = core.Baseline()
	}
	sw := core.New(core.Config{QueueCapBytes: 1 << 20}, arch, sched)

	var detections *[]apps.Detection
	var state int
	if mode == "event" {
		mb, prog := apps.NewMicroburst(apps.MicroburstConfig{
			Slots: 1024, ThresholdBytes: threshold, EgressPort: 1,
		})
		sw.MustLoad(prog)
		detections, state = &mb.Detections, mb.StateBytes()
	} else {
		sn, prog := apps.NewSnappy(apps.SnappyConfig{
			Snapshots: 4, Rows: 3, Width: 1024, WindowPkts: 256,
			ThresholdBytes: threshold, EgressPort: 1,
		})
		sw.MustLoad(prog)
		detections, state = &sn.Detections, sn.StateBytes()
	}

	// Background flows.
	rng := sim.NewRNG(42)
	flows := workload.NewFlowSet(100, 1.1, packet.IP4(10, 0, 0, 0))
	bg := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	bg.StartPoisson(workload.PoissonConfig{Flows: flows, MeanGap: 3 * sim.Microsecond, Until: 10 * sim.Millisecond})

	// One incast microburst at t=5ms.
	culprit := packet.Flow{Src: packet.IP4(172, 16, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 7000, DstPort: 80, Proto: packet.ProtoUDP}
	for i := 0; i < 20; i++ {
		at := 5*sim.Millisecond + sim.Time(i)*1230*sim.Nanosecond
		sched.At(at, func() {
			sw.Inject(2, packet.BuildFrame(packet.FrameSpec{Flow: culprit, TotalLen: 1500}))
			sw.Inject(3, packet.BuildFrame(packet.FrameSpec{Flow: culprit, TotalLen: 1500}))
		})
	}
	for i := 0; i < 10; i++ {
		at := 5*sim.Millisecond + 26*sim.Microsecond + sim.Time(i)*2*sim.Microsecond
		sched.At(at, func() {
			sw.Inject(2, packet.BuildFrame(packet.FrameSpec{Flow: culprit, TotalLen: 1500}))
		})
	}
	sched.Run(15 * sim.Millisecond)

	unique := map[uint32]bool{}
	for _, det := range *detections {
		unique[det.FlowSlot] = true
	}
	culpritSlot := uint32(culprit.Hash() % 1024)
	fmt.Fprintf(w, "  %-7s: %d unique flow(s) flagged; culprit flagged: %v\n",
		mode, len(unique), unique[culpritSlot])
	return len(unique), state
}
