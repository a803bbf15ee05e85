// AQM example (paper §3 Traffic Management, §5 "Computing Congestion
// Signals"): a FRED-like fair queue manager built entirely from
// enqueue/dequeue events. A 12 Gb/s hog and a 200 Mb/s mouse share one
// 10 Gb/s egress; the AQM computes total occupancy, per-flow occupancy
// and the active-flow count from buffer events, dropping only the flow
// exceeding its fair share. A timer event samples occupancy for a
// monitoring time series — the student project's report stream.
//
//	go run ./examples/aqm
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

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	sched := sim.NewScheduler()
	sw := core.New(core.Config{Name: "aqm", QueueCapBytes: 1 << 20}, core.EventDriven(), sched)

	fred, prog := apps.NewFRED(apps.FREDConfig{
		Slots:      256,
		MinQBytes:  3000,
		TotalLimit: 30000,
		EgressPort: 1,
		ReportPort: -1,
	})
	sw.MustLoad(prog)
	if err := fred.Arm(sw, sim.Millisecond); err != nil {
		panic(err)
	}

	hog := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 80, Proto: packet.ProtoUDP}
	mouse := packet.Flow{Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 2, DstPort: 80, Proto: packet.ProtoUDP}

	rng := sim.NewRNG(3)
	ghog := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	ghog.StartCBR(workload.CBRConfig{Flow: hog, Size: workload.FixedSize(1500),
		Rate: 12 * sim.Gbps, Until: 40 * sim.Millisecond})
	gmouse := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
	gmouse.StartCBR(workload.CBRConfig{Flow: mouse, Size: workload.FixedSize(300),
		Rate: 200 * sim.Mbps, Until: 40 * sim.Millisecond})

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

	sched.Run(45 * sim.Millisecond)

	fmt.Fprintf(w, "hog:   offered=%-6d delivered=%-6d dropped-by-AQM=%d\n",
		ghog.SentPackets, hogTx, fred.Dropped)
	fmt.Fprintf(w, "mouse: offered=%-6d delivered=%-6d (%.1f%%)\n",
		gmouse.SentPackets, mouseTx, 100*float64(mouseTx)/float64(gmouse.SentPackets))
	fmt.Fprintf(w, "congestion signals at end: total occupancy=%dB active flows=%d\n",
		fred.TotalOccupancy(), fred.ActiveFlows())
	fmt.Fprintf(w, "occupancy time series (from timer events): %d samples\n", len(fred.Samples))
	for i := 0; i < len(fred.Samples) && i < 8; i++ {
		s := fred.Samples[i]
		fmt.Fprintf(w, "  t=%-6v occupancy=%dB\n", s.At, s.Value)
	}
}
