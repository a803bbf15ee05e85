package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// xconnect returns a program that forwards port 0<->1, 2<->3.
func xconnect() *pisa.Program {
	p := pisa.NewProgram("xconnect")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	return p
}

func frame(n int, src, dst byte) []byte {
	return packet.BuildFrame(packet.FrameSpec{
		Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, src), Dst: packet.IP4(10, 0, 0, dst),
			SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoUDP,
		},
		TotalLen: n,
	})
}

func TestSwitchForwards(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{Name: "s1"}, Baseline(), sched)
	sw.MustLoad(xconnect())

	var out []int
	sw.OnTransmit = func(port int, pkt *packet.Packet) { out = append(out, port) }

	sw.Inject(0, frame(100, 1, 2))
	sw.Inject(1, frame(100, 2, 1))
	sched.Run(sim.Millisecond)

	if len(out) != 2 {
		t.Fatalf("transmitted %d packets, want 2", len(out))
	}
	if out[0] != 1 && out[1] != 1 {
		t.Errorf("no packet left port 1: %v", out)
	}
	st := sw.Stats()
	if st.RxPackets != 2 || st.TxPackets != 2 {
		t.Errorf("rx=%d tx=%d", st.RxPackets, st.TxPackets)
	}
	if st.PacketSlots != 2 || st.EmptySlots != 0 {
		t.Errorf("slots: pkt=%d empty=%d", st.PacketSlots, st.EmptySlots)
	}
}

func TestArchValidation(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, Baseline(), sched)
	p := pisa.NewProgram("ev")
	p.HandleFunc(events.BufferEnqueue, func(*pisa.Context) {})
	if err := sw.Load(p); err == nil {
		t.Fatal("baseline arch accepted an enqueue handler")
	}
	sw2 := New(Config{}, EventDriven(), sched)
	if err := sw2.Load(p); err != nil {
		t.Fatalf("event arch rejected program: %v", err)
	}
}

func TestBaselineHasNoTimersOrGenerator(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, Baseline(), sched)
	if err := sw.ConfigureTimer(0, sim.Millisecond); err == nil {
		t.Error("baseline arch configured a timer")
	}
	if err := sw.AddGenerator(sim.Millisecond, func(uint64) ([]byte, int) { return nil, 0 }); err == nil {
		t.Error("baseline arch configured a generator")
	}
}

func TestEnqueueDequeueEventsReachProgram(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := xconnect()
	var enq, deq int
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		enq++
		if ctx.Ev.PktLen == 0 || ctx.Ev.FlowHash == 0 {
			t.Errorf("enqueue event missing metadata: %+v", ctx.Ev)
		}
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) { deq++ })
	sw.MustLoad(p)

	for i := 0; i < 5; i++ {
		sw.Inject(0, frame(200, 1, 2))
	}
	sched.Run(sim.Millisecond)
	if enq != 5 || deq != 5 {
		t.Errorf("enq=%d deq=%d, want 5/5", enq, deq)
	}
	st := sw.Stats()
	if st.EventsMerged[events.BufferEnqueue] != 5 {
		t.Errorf("merged enq = %d", st.EventsMerged[events.BufferEnqueue])
	}
	// Events arriving when no packets were left must have used empty slots.
	if st.EmptySlots == 0 {
		t.Error("expected some empty metadata slots")
	}
}

func TestSharedRegisterTracksQueueOccupancy(t *testing.T) {
	// The paper's §2 example: enqueue adds pkt_len, dequeue subtracts it.
	// After the run the per-flow occupancy register must read zero and
	// its True value must match at all times.
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := xconnect()
	reg := p.AddRegister(pisa.NewAggregatedRegister("bufSize", 64,
		events.BufferEnqueue, events.BufferDequeue))
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		reg.Add(ctx, uint32(ctx.Ev.FlowHash%64), int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		reg.Add(ctx, uint32(ctx.Ev.FlowHash%64), -int64(ctx.Ev.PktLen))
	})
	sw.MustLoad(p)

	for i := 0; i < 50; i++ {
		sw.Inject(0, frame(500, 1, 2))
	}
	sched.Run(10 * sim.Millisecond)
	for i := uint32(0); i < 64; i++ {
		if v := reg.True(i); v != 0 {
			t.Errorf("flow slot %d: true occupancy %d after drain, want 0", i, v)
		}
		if v := reg.Stale(i); v != 0 {
			t.Errorf("flow slot %d: stale occupancy %d after drain, want 0", i, v)
		}
	}
	m, conflicts := reg.Metrics()
	if m.Deferred != 100 { // 50 enq + 50 deq
		t.Errorf("deferred = %d, want 100", m.Deferred)
	}
	if m.Dropped != 0 || conflicts != 0 {
		t.Errorf("dropped=%d conflicts=%d", m.Dropped, conflicts)
	}
}

func TestTimerEvents(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("timers")
	var fired []int
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		fired = append(fired, int(ctx.Ev.TimerID))
	})
	sw.MustLoad(p)
	if err := sw.ConfigureTimer(2, 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	sched.Run(1050 * sim.Microsecond)
	if len(fired) != 10 {
		t.Fatalf("timer fired %d times, want 10", len(fired))
	}
	for _, id := range fired {
		if id != 2 {
			t.Errorf("timer id = %d, want 2", id)
		}
	}
	sw.StopTimer(2)
	n := len(fired)
	sched.Run(2 * sim.Millisecond)
	if len(fired) != n {
		t.Error("timer fired after StopTimer")
	}
	if err := sw.ConfigureTimer(99, sim.Millisecond); err == nil {
		t.Error("out-of-range timer id accepted")
	}
}

func TestGeneratorRoutesThroughPipeline(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("gen")
	var genSlots int
	p.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) {
		genSlots++
		ctx.EgressPort = 3
	})
	sw.MustLoad(p)
	probe := packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1),
		&packet.Probe{TorID: 1})
	if err := sw.AddGenerator(50*sim.Microsecond, func(seq uint64) ([]byte, int) {
		return probe, -1 // route in pipeline
	}); err != nil {
		t.Fatal(err)
	}
	var tx []int
	sw.OnTransmit = func(port int, pkt *packet.Packet) { tx = append(tx, port) }
	sched.Run(525 * sim.Microsecond)
	if genSlots != 10 {
		t.Errorf("generated slots = %d, want 10", genSlots)
	}
	if len(tx) != 10 {
		t.Fatalf("transmitted = %d, want 10", len(tx))
	}
	for _, port := range tx {
		if port != 3 {
			t.Errorf("probe left port %d, want 3", port)
		}
	}
}

func TestLinkStatusEvents(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("links")
	var changes []events.Event
	p.HandleFunc(events.LinkStatusChange, func(ctx *pisa.Context) {
		changes = append(changes, ctx.Ev)
	})
	sw.MustLoad(p)
	sched.At(10*sim.Microsecond, func() { sw.SetLink(2, false) })
	sched.At(20*sim.Microsecond, func() { sw.SetLink(2, true) })
	sched.At(25*sim.Microsecond, func() { sw.SetLink(2, true) }) // no change: no event
	sched.Run(sim.Millisecond)
	if len(changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(changes))
	}
	if changes[0].Up || changes[0].Port != 2 {
		t.Errorf("first change = %+v", changes[0])
	}
	if !changes[1].Up {
		t.Errorf("second change = %+v", changes[1])
	}
}

func TestLinkDownDropsTraffic(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, Baseline(), sched)
	sw.MustLoad(xconnect())
	sw.SetLink(0, false)
	sw.Inject(0, frame(100, 1, 2)) // rx on downed link: lost
	sched.Run(sim.Millisecond)
	st := sw.Stats()
	if st.RxDropped != 1 || st.TxPackets != 0 {
		t.Errorf("rxDropped=%d tx=%d", st.RxDropped, st.TxPackets)
	}
}

func TestControlPlaneTriggeredEvent(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("cp")
	var data []uint64
	p.HandleFunc(events.ControlPlaneTriggered, func(ctx *pisa.Context) {
		data = append(data, ctx.Ev.Data)
	})
	sw.MustLoad(p)
	sw.TriggerControlEvent(42)
	sched.Run(sim.Millisecond)
	if len(data) != 1 || data[0] != 42 {
		t.Errorf("data = %v", data)
	}
}

func TestUserEventsAndRecirculation(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("user")
	var userData []uint64
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if ctx.Pkt.Recirc == 0 {
			ctx.Recirculate = true
			ctx.RaiseUser(7)
			return
		}
		ctx.EgressPort = 1 // second pass forwards
	})
	p.HandleFunc(events.RecirculatedPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = 1
	})
	p.HandleFunc(events.UserEvent, func(ctx *pisa.Context) {
		userData = append(userData, ctx.Ev.Data)
	})
	sw.MustLoad(p)
	var tx int
	sw.OnTransmit = func(int, *packet.Packet) { tx++ }
	sw.Inject(0, frame(100, 1, 2))
	sched.Run(sim.Millisecond)
	if tx != 1 {
		t.Fatalf("tx = %d, want 1 (after recirculation)", tx)
	}
	st := sw.Stats()
	if st.Recirculated != 1 {
		t.Errorf("recirculated = %d", st.Recirculated)
	}
	if len(userData) != 1 || userData[0] != 7 {
		t.Errorf("user events = %v", userData)
	}
}

func TestPacketTransmittedEvent(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := xconnect()
	var tx []events.Event
	p.HandleFunc(events.PacketTransmitted, func(ctx *pisa.Context) {
		tx = append(tx, ctx.Ev)
	})
	sw.MustLoad(p)
	sw.Inject(0, frame(300, 1, 2))
	sched.Run(sim.Millisecond)
	if len(tx) != 1 {
		t.Fatalf("transmitted events = %d", len(tx))
	}
	if tx[0].Port != 1 || tx[0].PktLen != 300 {
		t.Errorf("event = %+v", tx[0])
	}
}

func TestOverflowEvent(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{QueueCapBytes: 1000}, EventDriven(), sched)
	p := pisa.NewProgram("ovf")
	// Forward everything to port 1 but keep the link down so the queue
	// fills.
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	var overflows int
	p.HandleFunc(events.BufferOverflow, func(ctx *pisa.Context) { overflows++ })
	sw.MustLoad(p)
	// Stop the port from draining by pointing transmissions at a downed
	// link; dequeue drops them but we want queue buildup, so instead
	// block the TX by filling with more bytes than the queue capacity
	// in one burst (arrivals are faster than the 10G drain).
	for i := 0; i < 30; i++ {
		sw.Inject(0, frame(500, 1, 2))
	}
	sched.Run(10 * sim.Millisecond)
	if overflows == 0 {
		t.Error("no overflow events despite 15 KB burst into 1 KB queue")
	}
	st := sw.Stats()
	if st.EventsMerged[events.BufferOverflow] != uint64(overflows) {
		t.Errorf("merged=%d handler=%d", st.EventsMerged[events.BufferOverflow], overflows)
	}
}

func TestUnderflowEvent(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := xconnect()
	var underflows int
	p.HandleFunc(events.BufferUnderflow, func(ctx *pisa.Context) { underflows++ })
	sw.MustLoad(p)
	sw.Inject(0, frame(100, 1, 2))
	sched.Run(sim.Millisecond)
	if underflows != 1 {
		t.Errorf("underflows = %d, want 1", underflows)
	}
}

func TestCycleTimeMath(t *testing.T) {
	sched := sim.NewScheduler()
	// 4 ports x 10G, overspeed 1.0: min wire pkt (84B) takes 67.2ns per
	// port, so the aggregate slot budget is 16.8ns.
	sw := New(Config{Ports: 4, LineRate: 10 * sim.Gbps, Overspeed: 1.0}, Baseline(), sched)
	if got := sw.CycleTime(); got != 16800*sim.Picosecond {
		t.Errorf("cycle time = %v, want 16.8ns", got)
	}
	sw2 := New(Config{Ports: 4, LineRate: 10 * sim.Gbps, Overspeed: 1.4}, Baseline(), sched)
	if got := sw2.CycleTime(); got != 12000*sim.Picosecond {
		t.Errorf("cycle time = %v, want 12ns", got)
	}
}

func TestEventFIFODropsWhenFull(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{EventQueueDepth: 4}, EventDriven(), sched)
	p := pisa.NewProgram("cp")
	p.HandleFunc(events.ControlPlaneTriggered, func(*pisa.Context) {})
	sw.MustLoad(p)
	// Push 10 control events at the same instant; FIFO holds 4.
	for i := 0; i < 10; i++ {
		sw.TriggerControlEvent(uint64(i))
	}
	if sw.EventQueueDrops(events.ControlPlaneTriggered) != 6 {
		t.Errorf("drops = %d, want 6", sw.EventQueueDrops(events.ControlPlaneTriggered))
	}
	sched.Run(sim.Millisecond)
	st := sw.Stats()
	if st.EventsMerged[events.ControlPlaneTriggered] != 4 {
		t.Errorf("merged = %d, want 4", st.EventsMerged[events.ControlPlaneTriggered])
	}
}

func TestUnsubscribedEventsNotQueued(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	sw.MustLoad(xconnect()) // handles only IngressPacket
	sw.Inject(0, frame(100, 1, 2))
	sched.Run(sim.Millisecond)
	if sw.EventQueue(events.BufferEnqueue).Len() != 0 {
		t.Error("enqueue events queued despite no handler")
	}
	st := sw.Stats()
	if st.EventsMerged[events.BufferEnqueue] != 0 {
		t.Error("enqueue events merged despite no handler")
	}
	if st.TxPackets != 1 {
		t.Errorf("tx = %d", st.TxPackets)
	}
}

// TestLoadReservesHandledQueues: the event FIFO rings are not built with
// the switch (13 kinds × 512 × 48 B each) but at Load, for the kinds the
// program handles — so the first event of a run finds its ring in place.
func TestLoadReservesHandledQueues(t *testing.T) {
	sw := New(Config{}, EventDriven(), sim.NewScheduler())
	p := pisa.NewProgram("deq")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {})
	sw.MustLoad(p)
	ring := uint64(sw.Config().EventQueueDepth) * uint64(unsafe.Sizeof(events.Event{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := sw.InjectEvent(events.Event{Kind: events.BufferDequeue, Port: 1})
	runtime.ReadMemStats(&after)
	if !ok || sw.EventQueue(events.BufferDequeue).Len() != 1 {
		t.Fatal("handled event was not queued")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= ring {
		t.Errorf("first handled event allocated %d B: its ring was not reserved at Load", got)
	}
}
