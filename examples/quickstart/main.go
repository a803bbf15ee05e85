// Quickstart: compile the paper's §2 microburst program written in µP4,
// load it on a simulated SUME Event Switch, push a microburst through,
// and watch the data plane flag the culprit flow — all in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// The paper's microburst.p4, in µP4 syntax. Enqueue and Dequeue controls
// maintain per-flow buffer occupancy through shared_register aggregation
// (Figure 3); the Ingress control reads it before the packet is buffered
// and raises a user event when a flow exceeds the threshold.
const microburstP4 = `
const NUM_REGS = 1024;
const FLOW_THRESH = 15000;

shared_register<bit<32>>(NUM_REGS) bufSize_reg;

control Ingress {
    bit<32> bufSize;
    apply {
        bufSize_reg.read(ev.flow_id % NUM_REGS, bufSize);
        if (bufSize > FLOW_THRESH) {
            raise(ev.flow_id);   // microburst culprit!
        }
        forward(1);
    }
}

control Enqueue {
    apply { bufSize_reg.add(ev.flow_id % NUM_REGS, ev.pkt_len); }
}

control Dequeue {
    apply { bufSize_reg.add(ev.flow_id % NUM_REGS, 0 - ev.pkt_len); }
}

control UserEvent {
    apply { no_op(); }
}
`

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	compiled, err := p4.Compile(microburstP4)
	if err != nil {
		panic(err)
	}
	inst := compiled.Instantiate("microburst", p4.Options{})

	sched := sim.NewScheduler()
	sw := core.New(core.Config{Name: "s1"}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		panic(err)
	}

	// Observe the user events the program raises.
	culprits := map[uint64]int{}
	inst.Program().HandleFunc(events.UserEvent, func(ctx *pisa.Context) {
		culprits[ctx.Ev.Data]++
	})

	// A microburst: 2x20 1500B frames from one flow arrive on two ports
	// at once (incast), overflowing the threshold while a few trailing
	// packets observe the deep queue.
	burst := packet.Flow{
		Src: packet.IP4(172, 16, 0, 9), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 7777, DstPort: 80, Proto: packet.ProtoUDP,
	}
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 1230 * sim.Nanosecond
		sched.At(at, func() {
			sw.Inject(2, packet.BuildFrame(packet.FrameSpec{Flow: burst, TotalLen: 1500}))
			sw.Inject(3, packet.BuildFrame(packet.FrameSpec{Flow: burst, TotalLen: 1500}))
		})
	}
	for i := 0; i < 8; i++ {
		at := 26*sim.Microsecond + sim.Time(i)*2*sim.Microsecond
		sched.At(at, func() {
			sw.Inject(2, packet.BuildFrame(packet.FrameSpec{Flow: burst, TotalLen: 1500}))
		})
	}

	sched.Run(5 * sim.Millisecond)

	fmt.Fprintf(w, "switch %s ran %d pipeline cycles, forwarded %d packets\n",
		sw.Name(), sw.Stats().Cycles, sw.Stats().TxPackets)
	if len(culprits) == 0 {
		fmt.Fprintln(w, "no culprit detected (unexpected)")
		return
	}
	for flowID, n := range culprits {
		fmt.Fprintf(w, "microburst culprit: flow %#x flagged %d times while its queue exceeded %d bytes\n",
			flowID, n, 15000)
	}
	reg := inst.Register("bufSize_reg")
	fmt.Fprintf(w, "occupancy register drained back to zero: %v\n", reg.True(uint32(burst.Hash()%1024)) == 0)
}
