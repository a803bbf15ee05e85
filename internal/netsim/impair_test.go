package netsim

import (
	"bytes"
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

// TestImpairGetsPrivateCopy pins the aliasing fix: a corruption
// impairment that mutates its frame must not scribble on the buffer the
// sender retains, and the receiver sees the mutated copy.
func TestImpairGetsPrivateCopy(t *testing.T) {
	sched, _, h1, h2, l := twoHosts(t)

	orig := testFrame(120)
	sent := append([]byte(nil), orig...)

	l.SetImpair(func(data []byte) []Deliverable {
		for i := range data {
			data[i] ^= 0xFF // corrupt every byte
		}
		return []Deliverable{{Data: data}}
	})

	var got []byte
	h2.OnRecv = func(d []byte) { got = append([]byte(nil), d...) }
	h1.Send(sent)
	sched.Run(sim.Millisecond)

	if !bytes.Equal(sent, orig) {
		t.Error("impairment mutated the sender-retained buffer")
	}
	if got == nil {
		t.Fatal("frame not delivered")
	}
	if bytes.Equal(got, orig) {
		t.Error("receiver saw uncorrupted bytes; impairment had no effect")
	}
	if l.Delivered() != 1 || l.Sent() != 1 {
		t.Errorf("Sent=%d Delivered=%d, want 1/1", l.Sent(), l.Delivered())
	}
}

// TestImpairDropAndDuplicate pins the Dropped/Duplicated accounting and
// the link conservation identity.
func TestImpairDropAndDuplicate(t *testing.T) {
	sched, _, h1, h2, l := twoHosts(t)

	n := 0
	l.SetImpair(func(data []byte) []Deliverable {
		n++
		switch {
		case n%3 == 0: // drop every third frame
			return nil
		case n%3 == 1: // duplicate every first-of-three
			return []Deliverable{{Data: data}, {Data: append([]byte(nil), data...), ExtraDelay: sim.Microsecond}}
		default:
			return []Deliverable{{Data: data}}
		}
	})
	for i := 0; i < 9; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		sched.At(at, func() { h1.Send(testFrame(100)) })
	}
	sched.Run(10 * sim.Millisecond)

	if l.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", l.Dropped())
	}
	if l.Duplicated() != 3 {
		t.Errorf("Duplicated = %d, want 3", l.Duplicated())
	}
	if got, want := h2.RxPackets, uint64(9); got != want {
		t.Errorf("h2 rx = %d, want %d (3 dup + 3 plain + 3 extra copies)", got, want)
	}
	lhs := l.Sent() + l.Duplicated()
	rhs := l.Delivered() + l.LostAtSend() + l.LostInFlight() + l.Dropped() + l.InFlight()
	if lhs != rhs {
		t.Errorf("conservation broken: sent+dup=%d, accounted=%d", lhs, rhs)
	}
}

// TestHostPauseResume pins pause semantics: frames sent while paused are
// held in order and flushed on resume.
func TestHostPauseResume(t *testing.T) {
	sched, _, h1, h2, _ := twoHosts(t)

	var sizes []int
	h2.OnRecv = func(d []byte) { sizes = append(sizes, len(d)) }

	h1.Pause()
	h1.Send(testFrame(100))
	h1.Send(testFrame(200))
	sched.Run(sim.Millisecond)
	if len(sizes) != 0 {
		t.Fatalf("paused host delivered %d frames", len(sizes))
	}
	if h1.HeldFrames != 2 || !h1.paused {
		t.Errorf("held=%d paused=%v", h1.HeldFrames, h1.paused)
	}
	h1.Resume()
	sched.Run(2 * sim.Millisecond)
	if len(sizes) != 2 || sizes[0] != 100 || sizes[1] != 200 {
		t.Errorf("delivered sizes = %v, want [100 200] in order", sizes)
	}
	h1.Resume() // idempotent
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
