package core

import (
	"testing"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry/self"
)

// TestLinkFlapBurstCoalesces pins the default LinkStatusChange overflow
// policy: a burst of flaps on one port that outruns the pipeline
// collapses to a single pending event carrying the port's final state.
func TestLinkFlapBurstCoalesces(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	var seen []events.Event
	p := pisa.NewProgram("linkwatch")
	p.HandleFunc(events.LinkStatusChange, func(ctx *pisa.Context) {
		seen = append(seen, ctx.Ev)
	})
	sw.MustLoad(p)

	// 7 transitions on port 1 before the scheduler runs a single cycle:
	// down,up,down,up,down,up,down. One is stored, six coalesce.
	for i := 0; i < 7; i++ {
		sw.SetLink(1, i%2 != 0)
	}
	// One transition on port 2 queues separately.
	sw.SetLink(2, false)
	sched.Run(sim.Millisecond)

	if len(seen) != 2 {
		t.Fatalf("handler saw %d events, want 2 (coalesced burst + port 2)", len(seen))
	}
	if seen[0].Port != 1 || seen[0].Up {
		t.Errorf("port 1 event = %+v, want final state down", seen[0])
	}
	if seen[1].Port != 2 || seen[1].Up {
		t.Errorf("port 2 event = %+v", seen[1])
	}
	st := sw.Stats()
	if st.EventsCoalesced[events.LinkStatusChange] != 6 {
		t.Errorf("coalesced = %d, want 6", st.EventsCoalesced[events.LinkStatusChange])
	}
	if st.EventsDropped[events.LinkStatusChange] != 0 {
		t.Errorf("dropped = %d, want 0 (coalescing saved them)", st.EventsDropped[events.LinkStatusChange])
	}
}

// TestEventQueuePolicyOverride pins EventQueue(k).SetPolicy: a UserEvent
// FIFO switched to DropOldest after New sheds its head under pressure
// instead of refusing fresh events.
func TestEventQueuePolicyOverride(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{EventQueueDepth: 4}, EventDriven(), sched)
	sw.EventQueue(events.UserEvent).SetPolicy(events.DropOldest)
	var got []uint64
	p := pisa.NewProgram("userwatch")
	p.HandleFunc(events.UserEvent, func(ctx *pisa.Context) { got = append(got, ctx.Ev.Data) })
	sw.MustLoad(p)

	for i := 0; i < 10; i++ {
		if ok := sw.InjectEvent(events.Event{Kind: events.UserEvent, Port: -1, Data: uint64(i)}); !ok {
			t.Fatalf("inject %d refused under DropOldest", i)
		}
	}
	sched.Run(sim.Millisecond)

	if len(got) != 4 {
		t.Fatalf("handler saw %d events, want the 4 freshest", len(got))
	}
	for i, d := range got {
		if want := uint64(6 + i); d != want {
			t.Errorf("got[%d] = %d, want %d", i, d, want)
		}
	}
	st := sw.Stats()
	if st.EventsShed[events.UserEvent] != 6 || st.EventsDropped[events.UserEvent] != 0 {
		t.Errorf("shed=%d dropped=%d, want 6/0", st.EventsShed[events.UserEvent], st.EventsDropped[events.UserEvent])
	}
}

// TestInjectEventGating pins InjectEvent's contract: events the
// architecture or program doesn't accept are refused, not queued.
func TestInjectEventGating(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, Baseline(), sched)
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	sw.MustLoad(p)
	if sw.InjectEvent(events.Event{Kind: events.LinkStatusChange, Port: 1}) {
		t.Error("baseline arch accepted a LinkStatusChange injection")
	}
}

// TestSwitchPacketConservation pins the inventory identity faults.Audit
// checks: every accepted or generated packet is transmitted, dropped
// with a counted reason, or still somewhere in the Inventory.
func TestSwitchPacketConservation(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{QueueCapBytes: 4096}, EventDriven(), sched)
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	sw.MustLoad(p)

	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	frame := packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500})

	// Overdrive the 4 KiB queue while the output link flaps, so every
	// loss class (tm-overflow, link-down) and live inventory state shows
	// up; stop the run mid-flight so Inventory is non-trivial.
	for i := 0; i < 40; i++ {
		at := sim.Time(i) * 200 * sim.Nanosecond
		sched.At(at, func() { sw.Inject(0, frame) })
	}
	sched.At(3*sim.Microsecond, func() { sw.SetLink(1, false) })
	sched.At(5*sim.Microsecond, func() { sw.SetLink(1, true) })
	sched.Run(6 * sim.Microsecond)

	st := sw.Stats()
	_, _, tmDrops, _ := sw.TM().Stats()
	accepted := st.RxPackets + st.Generated
	accounted := st.TxPackets + st.PipelineDrops + st.TxDroppedLinkDown +
		tmDrops + uint64(sw.Inventory().Total())
	if accepted != accounted {
		t.Errorf("conservation broken mid-run: accepted=%d accounted=%d inv=%+v",
			accepted, accounted, sw.Inventory())
	}
	// And again after draining.
	sched.Run(10 * sim.Millisecond)
	st = sw.Stats()
	_, _, tmDrops, _ = sw.TM().Stats()
	inv := sw.Inventory()
	if inv.Total() != 0 {
		t.Errorf("inventory not empty after drain: %+v", inv)
	}
	accepted = st.RxPackets + st.Generated
	accounted = st.TxPackets + st.PipelineDrops + st.TxDroppedLinkDown + tmDrops
	if accepted != accounted {
		t.Errorf("conservation broken after drain: accepted=%d accounted=%d", accepted, accounted)
	}
}

// TestPoolInUseFollowsItsPlane pins self.pool.in_use to the plane the
// switch's scheduler carried when the switch was built. A packet's Get
// and its Release count into the same plane or into none, so the level
// equals the switch's packet inventory whenever it is read — mid flight
// and drained — and never dips below zero; a switch on a plane-less
// scheduler in the same process moves nobody's level.
func TestPoolInUseFollowsItsPlane(t *testing.T) {
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	frame := packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500})
	build := func(sched *sim.Scheduler) *Switch {
		sw := New(Config{QueueCapBytes: 4096}, EventDriven(), sched)
		p := pisa.NewProgram("fwd")
		p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
		sw.MustLoad(p)
		for i := 0; i < 40; i++ {
			sched.At(sim.Time(i)*200*sim.Nanosecond, func() { sw.Inject(0, frame) })
		}
		return sw
	}

	plane := new(self.Plane)
	observed, unobserved := sim.NewScheduler(), sim.NewScheduler()
	observed.SetSelf(plane)
	sw, other := build(observed), build(unobserved)

	unobserved.Run(6 * sim.Microsecond)
	if other.Inventory().Total() == 0 {
		t.Fatal("unobserved switch holds no packets mid-run; the check below covers nothing")
	}
	if cur, high := plane.PoolInUse.Cur(), plane.PoolInUse.High(); cur != 0 || high != 0 {
		t.Errorf("a switch without the plane moved it: in_use=%d high_water=%d", cur, high)
	}

	// The scrape: what /status would read, at every 100 ns of the run.
	observed.Every(100*sim.Nanosecond, func() {
		if cur := plane.PoolInUse.Cur(); cur < 0 {
			t.Errorf("pool.in_use = %d at t=%v", cur, observed.Now())
		}
	})
	observed.Run(6 * sim.Microsecond)
	if inv := sw.Inventory().Total(); inv == 0 || plane.PoolInUse.Cur() != int64(inv) {
		t.Errorf("mid-run: pool.in_use = %d, inventory = %d (want equal, non-zero)", plane.PoolInUse.Cur(), inv)
	}
	observed.Run(10 * sim.Millisecond)
	if inv := sw.Inventory().Total(); inv != 0 || plane.PoolInUse.Cur() != 0 {
		t.Errorf("drained: pool.in_use = %d, inventory = %d (want both 0)", plane.PoolInUse.Cur(), inv)
	}
	if plane.PoolInUse.High() == 0 {
		t.Error("pool.high_water never moved")
	}
	unobserved.Run(10 * sim.Millisecond)
	if cur := plane.PoolInUse.Cur(); cur != 0 {
		t.Errorf("draining the unobserved switch moved the plane: in_use=%d", cur)
	}
}
