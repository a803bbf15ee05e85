package faults

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// TestAuditCatchesImbalance is the auditor's negative test: cooking a
// link counter must produce a violation.
func TestAuditCatchesImbalance(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	sw.MustLoad(p)
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(1, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(1, 0, 0, 2))
	net.Attach(h1, sw, 0, sim.Microsecond)
	net.Attach(h2, sw, 1, 0)

	h1.Send(packet.BuildFrame(packet.FrameSpec{
		Flow:     packet.Flow{Src: h1.IP, Dst: h2.IP, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP},
		TotalLen: 100,
	}))
	sched.Run(sim.Millisecond)
	if r := Audit(net); !r.OK() {
		t.Fatalf("clean run failed audit: %v", r)
	}
	net.Links()[0].Counters(0).Sent += 3
	r := Audit(net)
	if r.OK() {
		t.Fatal("audit missed a cooked Sent counter")
	}
	if len(r.Violations) != 1 {
		t.Errorf("violations = %v, want exactly the cooked link", r.Violations)
	}
}
