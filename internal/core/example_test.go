package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// A complete switch in a few lines: load a program that counts buffer
// events while forwarding, inject traffic, run virtual time.
func Example() {
	sched := sim.NewScheduler()
	sw := core.New(core.Config{Name: "s1"}, core.EventDriven(), sched)

	prog := pisa.NewProgram("count-events")
	var enq, deq int
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	prog.HandleFunc(events.BufferEnqueue, func(*pisa.Context) { enq++ })
	prog.HandleFunc(events.BufferDequeue, func(*pisa.Context) { deq++ })
	if err := sw.Load(prog); err != nil {
		panic(err)
	}

	for i := 0; i < 3; i++ {
		sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP,
		}, TotalLen: 200}))
	}
	sched.Run(sim.Millisecond)

	st := sw.Stats()
	fmt.Printf("forwarded %d packets; saw %d enqueue and %d dequeue events\n",
		st.TxPackets, enq, deq)
	// Output:
	// forwarded 3 packets; saw 3 enqueue and 3 dequeue events
}

// The architecture description controls which events a program may bind:
// timers exist only on the event-driven target.
func ExampleArch() {
	fmt.Println(core.Baseline().Supports(events.TimerExpiration))
	fmt.Println(core.EventDriven().Supports(events.TimerExpiration))
	// Output:
	// false
	// true
}
