// In-band telemetry example (paper §3 Network Monitoring): a chain of
// three INT transit switches pushes per-hop records (switch id, queue
// occupancy, latency estimate, timestamp) onto instrumented packets.
// The middle switch is congested by cross traffic; the receiving host
// reconstructs exactly where along the path the queueing happened.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)

	var switches []*core.Switch
	for i := 0; i < 3; i++ {
		_, prog := apps.NewINTTransit(apps.INTTransitConfig{
			SwitchID: uint32(i + 1), EgressPort: 1,
		})
		sw := core.New(core.Config{Name: fmt.Sprintf("s%d", i+1), QueueCapBytes: 1 << 20},
			core.EventDriven(), sched)
		if err := sw.Load(prog); err != nil {
			panic(err)
		}
		net.AddSwitch(sw)
		switches = append(switches, sw)
	}
	src := net.NewHost("src", packet.IP4(10, 0, 0, 1))
	sink := net.NewHost("sink", packet.IP4(10, 9, 0, 1))
	net.Attach(src, switches[0], 0, 0)
	net.Connect(switches[0], 1, switches[1], 0, sim.Microsecond)
	net.Connect(switches[1], 1, switches[2], 0, sim.Microsecond)
	net.Attach(sink, switches[2], 1, 0)
	crossA := net.NewHost("crossA", packet.IP4(10, 0, 0, 2))
	crossB := net.NewHost("crossB", packet.IP4(10, 0, 0, 3))
	net.Attach(crossA, switches[1], 2, 0)
	net.Attach(crossB, switches[1], 3, 0)

	// Per-hop peak statistics at the sink.
	peaks := map[uint32]uint32{}
	var received int
	sink.OnRecv = func(data []byte) {
		recs, ok := packet.INTRecords(data)
		if !ok {
			return
		}
		received++
		for _, r := range recs {
			if r.QueueBytes > peaks[r.SwitchID] {
				peaks[r.SwitchID] = r.QueueBytes
			}
		}
	}

	// Instrumented probes every 200us; 12G of cross traffic into the
	// middle switch's 10G egress from 2ms to 8ms.
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 9, 0, 1),
		SrcPort: 7000, DstPort: packet.INTPort, Proto: packet.ProtoUDP}
	for i := 0; i < 60; i++ {
		at := sim.Time(i) * 200 * sim.Microsecond
		sched.At(at, func() {
			data := packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 200})
			inst, err := packet.INTInstrument(data)
			if err != nil {
				panic(err)
			}
			src.Send(inst)
		})
	}
	for i, h := range []*netsim.Host{crossA, crossB} {
		g := workload.NewGen(sched, sim.NewRNG(uint64(i+1)), func(d []byte) { h.Send(d) })
		i := i
		sched.At(2*sim.Millisecond, func() {
			g.StartCBR(workload.CBRConfig{
				Flow: packet.Flow{Src: packet.IP4(10, 0, 0, byte(9+i)), Dst: packet.IP4(10, 9, 0, 1),
					SrcPort: uint16(100 + i), DstPort: 80, Proto: packet.ProtoUDP},
				Size: workload.FixedSize(1500), Rate: 6 * sim.Gbps, Until: 8 * sim.Millisecond,
			})
		})
	}

	sched.Run(15 * sim.Millisecond)

	fmt.Fprintf(w, "sink received %d instrumented packets, each carrying 3 hop records\n", received)
	for hop := uint32(1); hop <= 3; hop++ {
		fmt.Fprintf(w, "  switch %d peak queue along the path: %6d bytes\n", hop, peaks[hop])
	}
	fmt.Fprintln(w, "the congested hop is visible directly in the packets — no polling, no control plane")
}
