package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
)

// twoHosts wires h1 -- sw -- h2 and returns the h1-side link.
func twoHosts(t *testing.T) (*sim.Scheduler, *Network, *Host, *Host, *Link) {
	t.Helper()
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.Baseline(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(1, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(1, 0, 0, 2))
	l := net.Attach(h1, sw, 0, sim.Microsecond)
	net.Attach(h2, sw, 1, 0)
	return sched, net, h1, h2, l
}

// TestLostAtSendVsLostInFlight pins the split of the old conflated Lost
// counter: a frame sent into a downed link is LostAtSend; a frame caught
// mid-propagation by a Fail is LostInFlight.
func TestLostAtSendVsLostInFlight(t *testing.T) {
	sched, net, h1, h2, l := twoHosts(t)

	// Frame 1: link fails while the frame is propagating (latency 1us).
	h1.Send(testFrame(100))
	sched.At(500*sim.Nanosecond, func() { net.Fail(l) })
	// Frame 2: sent while the link is down.
	sched.At(2*sim.Microsecond, func() { h1.Send(testFrame(100)) })
	sched.At(3*sim.Microsecond, func() { net.Repair(l) })
	// Frame 3: clean delivery after repair.
	sched.At(4*sim.Microsecond, func() { h1.Send(testFrame(100)) })
	sched.Run(10 * sim.Millisecond)

	if l.LostInFlight() != 1 {
		t.Errorf("LostInFlight = %d, want 1", l.LostInFlight())
	}
	if l.LostAtSend() != 1 {
		t.Errorf("LostAtSend = %d, want 1", l.LostAtSend())
	}
	if l.Lost() != 2 {
		t.Errorf("Lost() = %d, want 2", l.Lost())
	}
	if l.Sent() != 3 || l.Delivered() != 1 {
		t.Errorf("Sent=%d Delivered=%d, want 3/1", l.Sent(), l.Delivered())
	}
	if h2.RxPackets != 1 {
		t.Errorf("h2 rx = %d, want 1", h2.RxPackets)
	}
	if l.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain", l.InFlight())
	}
}

// TestOnLinkChangeHook pins the network-level link observer used by
// control-plane baselines.
func TestOnLinkChangeHook(t *testing.T) {
	sched, net, _, _, l := twoHosts(t)
	var seen []bool
	net.OnLinkChange = func(got *Link, up bool) {
		if got != l {
			t.Errorf("hook saw wrong link %v", got)
		}
		seen = append(seen, up)
	}
	sched.At(sim.Microsecond, func() { net.Fail(l) })
	sched.At(2*sim.Microsecond, func() { net.Fail(l) }) // idempotent: no second callback
	sched.At(3*sim.Microsecond, func() { net.Repair(l) })
	sched.Run(sim.Millisecond)
	if len(seen) != 2 || seen[0] || !seen[1] {
		t.Errorf("link-change sequence = %v, want [false true]", seen)
	}
}
