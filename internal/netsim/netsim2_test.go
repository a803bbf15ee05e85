package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

func TestTapTransmitObservesWithoutInterfering(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.Baseline(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(1, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(1, 0, 0, 2))
	net.Attach(h1, sw, 0, 0)
	net.Attach(h2, sw, 1, 0)

	var tapped [][2]int // (port, len)
	net.TapTransmit(sw, func(port int, data []byte) {
		tapped = append(tapped, [2]int{port, len(data)})
	})
	h1.Send(testFrame(200))
	sched.Run(sim.Millisecond)

	if h2.RxPackets != 1 {
		t.Fatalf("delivery broken by tap: rx=%d", h2.RxPackets)
	}
	if len(tapped) != 1 || tapped[0][0] != 1 || tapped[0][1] != 200 {
		t.Errorf("tapped = %v", tapped)
	}
}

func TestHostSendWhileDetachedPanics(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	h := net.NewHost("h", packet.IP4(1, 0, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic sending from unattached host")
		}
	}()
	h.Send(testFrame(100))
}

func TestFailRepairIdempotent(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	s1 := core.New(core.Config{Name: "s1"}, core.EventDriven(), sched)
	s2 := core.New(core.Config{Name: "s2"}, core.EventDriven(), sched)
	// Each switch sends what it is handed on port 0 over the link and
	// drops what arrives from it.
	edge := func() *pisa.Program {
		p := pisa.NewProgram("edge")
		p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
			if ctx.Pkt.InPort == 0 {
				ctx.EgressPort = 1
			}
		})
		return p
	}
	s1.MustLoad(edge())
	s2.MustLoad(edge())
	net.AddSwitch(s1)
	net.AddSwitch(s2)
	l := net.Connect(s1, 1, s2, 1, 0)
	net.Fail(l)
	net.Fail(l) // no double event
	net.Repair(l)
	net.Repair(l)
	if !l.Up() {
		t.Error("link down after repair")
	}
	// Both ends of the repaired link transmit again.
	s1.Inject(0, testFrame(100))
	s2.Inject(0, testFrame(100))
	sched.Run(sim.Millisecond)
	for _, sw := range []*core.Switch{s1, s2} {
		if st := sw.Stats(); st.TxDroppedLinkDown != 0 || st.TxPackets != 1 {
			t.Errorf("%s: tx=%d dropped on a down link=%d, want 1/0", sw.Name(), st.TxPackets, st.TxDroppedLinkDown)
		}
	}
}

func TestConnectLeafSpine(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	var tors, spines []*core.Switch
	for i := 0; i < 3; i++ {
		sw := core.New(core.Config{Name: "tor", Ports: 4}, core.Baseline(), sched)
		net.AddSwitch(sw)
		tors = append(tors, sw)
	}
	for j := 0; j < 3; j++ {
		sw := core.New(core.Config{Name: "spine", Ports: 4}, core.Baseline(), sched)
		net.AddSwitch(sw)
		spines = append(spines, sw)
	}
	net.ConnectLeafSpine(tors, spines, sim.Microsecond)
	if got := len(net.Links()); got != 9 {
		t.Fatalf("links = %d, want 9", got)
	}
	// Every tor uplink and spine downlink is wired.
	for i, tor := range tors {
		for j, spine := range spines {
			if net.LinkAt(tor, 1+j) == nil || net.LinkAt(spine, i) == nil {
				t.Fatalf("missing link tor%d:%d <-> spine%d:%d", i, 1+j, j, i)
			}
			if net.LinkAt(tor, 1+j) != net.LinkAt(spine, i) {
				t.Fatalf("mismatched wiring at tor%d/spine%d", i, j)
			}
		}
	}
}

func TestConnectLeafSpineValidatesPorts(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	tor := core.New(core.Config{Name: "tor", Ports: 2}, core.Baseline(), sched)
	spine := core.New(core.Config{Name: "spine", Ports: 4}, core.Baseline(), sched)
	net.AddSwitch(tor)
	net.AddSwitch(spine)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too few ToR ports")
		}
	}()
	net.ConnectLeafSpine([]*core.Switch{tor}, []*core.Switch{spine, spine, spine}, 0)
}
