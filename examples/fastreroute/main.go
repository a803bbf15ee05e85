// Fast re-route example (paper §3 Network Management, §5 student
// project): a three-switch triangle where s1 normally reaches the sink
// through s2. When the s1-s2 link fails, the LinkStatusChange event lets
// s1's data plane fail over to the backup path through s3 immediately —
// no control-plane involvement — and fail back on repair.
//
//	go run ./examples/fastreroute
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)

	flow := packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	dstPrefix := int(uint32(flow.Dst) >> 16)

	s1 := core.New(core.Config{Name: "s1"}, core.EventDriven(), sched)
	frr, prog := apps.NewFRR(apps.FRRConfig{
		Primary: map[int]int{dstPrefix: 1}, // via s2
		Backup:  map[int]int{dstPrefix: 2}, // via s3
	})
	s1.MustLoad(prog)

	fwd := func(port int) *pisa.Program {
		p := pisa.NewProgram("fwd")
		p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = port })
		return p
	}
	s2 := core.New(core.Config{Name: "s2"}, core.Baseline(), sched)
	s2.MustLoad(fwd(3))
	s3 := core.New(core.Config{Name: "s3"}, core.Baseline(), sched)
	s3.MustLoad(fwd(3))

	for _, sw := range []*core.Switch{s1, s2, s3} {
		net.AddSwitch(sw)
	}
	src := net.NewHost("src", flow.Src)
	sinkA := net.NewHost("sink-via-s2", flow.Dst)
	sinkB := net.NewHost("sink-via-s3", flow.Dst)
	net.Attach(src, s1, 0, 0)
	primary := net.Connect(s1, 1, s2, 0, 10*sim.Microsecond)
	net.Connect(s1, 2, s3, 0, 10*sim.Microsecond)
	net.Attach(sinkA, s2, 3, 0)
	net.Attach(sinkB, s3, 3, 0)

	gen := workload.NewGen(sched, sim.NewRNG(1), func(d []byte) { src.Send(d) })
	gen.StartCBR(workload.CBRConfig{
		Flow: flow, Size: workload.FixedSize(500), Rate: sim.Gbps, Until: 30 * sim.Millisecond,
	})

	sched.At(10*sim.Millisecond, func() {
		fmt.Fprintf(w, "t=%v  FAIL primary link %v\n", sched.Now(), primary)
		net.Fail(primary)
	})
	sched.At(20*sim.Millisecond, func() {
		fmt.Fprintf(w, "t=%v  REPAIR primary link\n", sched.Now())
		net.Repair(primary)
	})

	// Report path usage every 5 ms.
	sched.Every(5*sim.Millisecond, func() {
		fmt.Fprintf(w, "t=%-6v delivered: via-s2=%-6d via-s3=%-6d (failovers=%d)\n",
			sched.Now(), sinkA.RxPackets, sinkB.RxPackets, frr.Failovers)
	})

	sched.Run(32 * sim.Millisecond)

	lost := gen.SentPackets - sinkA.RxPackets - sinkB.RxPackets
	fmt.Fprintf(w, "\nsent=%d delivered=%d lost=%d (only packets in flight on the failed link)\n",
		gen.SentPackets, sinkA.RxPackets+sinkB.RxPackets, lost)
	fmt.Fprintf(w, "primary-routed=%d backup-routed=%d failovers=%d\n",
		frr.RoutedPrimary, frr.RoutedBackup, frr.Failovers)
}
