// Router example: a µP4 LPM router (table + actions + counter extern)
// with routes installed through the modeled control plane — showing the
// ordinary P4 workflow (compile, load, install entries, forward) on the
// event-driven target, plus a timer-driven byte-counter report that a
// baseline target could not express.
//
//	go run ./examples/router
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

const routerP4 = `
counter(16) port_bytes;

action set_egress(port) {
    forward(port);
}

action drop_pkt() {
    drop();
}

table ipv4_lpm {
    key = { hdr.ip.dst : lpm; }
    actions = { set_egress; drop_pkt; }
    default_action = drop_pkt();
}

control Ingress {
    apply {
        if (hdr.ip.valid == 1) {
            ipv4_lpm.apply();
            port_bytes.count(std.ingress_port, std.pkt_len);
        } else {
            drop();
        }
    }
}

control Timer {
    apply { no_op(); }   // hook for periodic stats export
}
`

func main() { run(os.Stdout) }

// run is the example, writing its report to w.
func run(w io.Writer) {
	inst := p4.MustCompile(routerP4).Instantiate("router", p4.Options{})

	sched := sim.NewScheduler()
	sw := core.New(core.Config{Name: "rtr"}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		panic(err)
	}

	// Install routes through the control-plane model: each install costs
	// a message and takes effect after the channel latency.
	agent := controlplane.New(sched, sim.NewRNG(1))
	routes := []struct {
		prefix packet.IP
		length int
		port   uint64
	}{
		{packet.IP4(10, 0, 0, 0), 8, 1},
		{packet.IP4(10, 1, 0, 0), 16, 2},
		{packet.IP4(192, 168, 0, 0), 16, 3},
	}
	tbl := inst.Table("ipv4_lpm")
	for _, r := range routes {
		r := r
		agent.InstallEntry(tbl, &pisa.Entry{
			Values: []uint64{uint64(r.prefix)},
			Masks:  []uint64{pisa.PrefixMask(r.length, 32)},
			Action: func(ctx *pisa.Context, params []uint64) { ctx.EgressPort = int(params[0]) },
			Params: []uint64{r.port},
		})
	}

	var perPort [4]int
	sw.OnTransmit = func(port int, _ *packet.Packet) { perPort[port]++ }

	// Traffic arrives before and after the routes land (~100-500us).
	dsts := []packet.IP{
		packet.IP4(10, 5, 0, 1),    // /8  -> port 1
		packet.IP4(10, 1, 2, 3),    // /16 -> port 2
		packet.IP4(192, 168, 9, 9), // /16 -> port 3
		packet.IP4(8, 8, 8, 8),     // miss -> drop
	}
	for i := 0; i < 40; i++ {
		i := i
		at := sim.Time(i) * 50 * sim.Microsecond
		sched.At(at, func() {
			fl := packet.Flow{
				Src: packet.IP4(172, 16, 0, 1), Dst: dsts[i%len(dsts)],
				SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoUDP,
			}
			sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 300}))
		})
	}
	sched.Run(5 * sim.Millisecond)

	fmt.Fprintf(w, "control plane: %d messages, %d installs applied\n", agent.Messages, agent.Completed)
	for port, n := range perPort {
		if n > 0 {
			fmt.Fprintf(w, "port %d forwarded %d packets\n", port, n)
		}
	}
	fmt.Fprintf(w, "dropped in pipeline (miss or pre-install): %d\n", sw.Stats().PipelineDrops)
	pk, by := inst.Program().Counter("port_bytes").Value(0)
	fmt.Fprintf(w, "ingress port 0 counter: %d packets, %d bytes\n", pk, by)
}
