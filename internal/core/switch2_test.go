package core

import (
	"slices"
	"testing"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

func TestMaxEventsPerSlot(t *testing.T) {
	// A width-1 merger can only attach one event per slot; with both an
	// enqueue and a dequeue pending, the lower-priority one waits for
	// the next slot.
	sched := sim.NewScheduler()
	sw := New(Config{MaxEventsPerSlot: 1}, EventDriven(), sched)
	p := xconnect()
	var order []events.Kind
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) { order = append(order, ctx.Ev.Kind) })
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) { order = append(order, ctx.Ev.Kind) })
	sw.MustLoad(p)
	sw.Inject(0, frame(100, 1, 2))
	sched.Run(sim.Millisecond)
	if len(order) != 2 {
		t.Fatalf("events handled = %v", order)
	}
	// Dequeue outranks enqueue in the default merger priority; both
	// were eventually delivered despite the narrow bus.
	st := sw.Stats()
	if st.EventsMerged[events.BufferEnqueue] != 1 || st.EventsMerged[events.BufferDequeue] != 1 {
		t.Errorf("merged: %v", st.EventsMerged)
	}
}

func TestStopGenerators(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("gen")
	p.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) { ctx.EgressPort = 0 })
	sw.MustLoad(p)
	if err := sw.AddGenerator(100*sim.Microsecond, func(uint64) ([]byte, int) {
		return packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1), &packet.Probe{}), -1
	}); err != nil {
		t.Fatal(err)
	}
	sched.Run(sim.Millisecond)
	n := sw.Stats().Generated
	if n == 0 {
		t.Fatal("generator idle")
	}
	sw.StopGenerators()
	sched.Run(5 * sim.Millisecond)
	if sw.Stats().Generated != n {
		t.Errorf("generator kept producing after StopGenerators: %d -> %d", n, sw.Stats().Generated)
	}
}

func TestRecirculationGuardAgainstLoops(t *testing.T) {
	// A program that recirculates forever must not wedge the switch
	// beyond its own packet: other traffic still flows.
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := pisa.NewProgram("loop")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if packet.EtherTypeOf(ctx.Pkt.Data) == packet.EtherTypeProbe {
			ctx.Recirculate = true // loops forever
			return
		}
		ctx.EgressPort = 1
	})
	p.HandleFunc(events.RecirculatedPacket, func(ctx *pisa.Context) {
		ctx.Recirculate = true
	})
	sw.MustLoad(p)
	sw.Inject(0, packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1), &packet.Probe{}))
	for i := 0; i < 10; i++ {
		sw.Inject(2, frame(100, 1, 2))
	}
	sched.Run(100 * sim.Microsecond)
	if got := sw.Stats().TxPackets; got != 10 {
		t.Errorf("normal traffic delivered %d of 10 despite recirculating packet", got)
	}
	if sw.Stats().Recirculated < 100 {
		t.Errorf("recirculations = %d, expected a busy loop", sw.Stats().Recirculated)
	}
}

func TestEgressHandlerDropsAndEmits(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := xconnect()
	// Egress pipeline drops every second data packet and emits a report
	// for each drop (the handler sees report frames too, so it filters
	// to IPv4).
	var n int
	p.HandleFunc(events.EgressPacket, func(ctx *pisa.Context) {
		if !ctx.Has(packet.LayerIPv4) {
			return
		}
		n++
		if n%2 == 0 {
			rep := &packet.Report{Kind: packet.ReportAnomaly, V0: uint64(n)}
			ctx.Emit(packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(3), rep), 2)
			ctx.Drop()
		}
	})
	sw.MustLoad(p)
	var dataTx, repTx int
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port == 2 {
			repTx++
		} else {
			dataTx++
		}
	}
	for i := 0; i < 6; i++ {
		sw.Inject(0, frame(100, 1, 2))
	}
	sched.Run(sim.Millisecond)
	if dataTx != 3 || repTx != 3 {
		t.Errorf("dataTx=%d repTx=%d, want 3/3", dataTx, repTx)
	}
	if sw.Stats().PipelineDrops != 3 {
		t.Errorf("drops = %d", sw.Stats().PipelineDrops)
	}
}

func TestSwitchDeterminism(t *testing.T) {
	// Two identical runs produce byte-identical statistics.
	run := func() Stats {
		sched := sim.NewScheduler()
		sw := New(Config{}, EventDriven(), sched)
		p := xconnect()
		occ := p.AddRegister(pisa.NewAggregatedRegister("occ", 16,
			events.BufferEnqueue, events.BufferDequeue))
		p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
		})
		p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
			occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
		})
		sw.MustLoad(p)
		sw.ConfigureTimer(0, 10*sim.Microsecond)
		p.HandleFunc(events.TimerExpiration, func(*pisa.Context) {})
		rng := sim.NewRNG(9)
		for i := 0; i < 500; i++ {
			port := rng.Intn(4)
			size := 60 + rng.Intn(1400)
			at := sim.Time(rng.Intn(1_000_000)) * sim.Microsecond / 1000
			sched.At(at, func() { sw.Inject(port, frame(size, byte(port), byte(port^1))) })
		}
		sched.Run(5 * sim.Millisecond)
		return sw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestOnSlotTrace(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	p := xconnect()
	p.HandleFunc(events.BufferEnqueue, func(*pisa.Context) {})
	sw.MustLoad(p)
	var slots []SlotInfo
	sw.OnSlot = func(info SlotInfo) { slots = append(slots, info) }
	sw.Inject(0, frame(100, 1, 2))
	sched.Run(sim.Millisecond)
	if len(slots) < 2 {
		t.Fatalf("slots traced = %d", len(slots))
	}
	if slots[0].PktKind != events.IngressPacket || slots[0].PktLen != 100 || slots[0].Empty {
		t.Errorf("first slot = %+v", slots[0])
	}
	// The enqueue event rides a later (empty) slot.
	found := false
	for _, s := range slots[1:] {
		for _, k := range s.Events {
			if k == events.BufferEnqueue {
				found = true
				if !s.Empty {
					t.Error("enqueue event should ride an empty slot here (no more packets)")
				}
			}
		}
	}
	if !found {
		t.Error("enqueue event not traced")
	}
}

func TestNoPiggybackDedicatedSlots(t *testing.T) {
	// With NoPiggyback, packet slots never carry events: every event
	// rides its own empty slot.
	sched := sim.NewScheduler()
	sw := New(Config{NoPiggyback: true}, EventDriven(), sched)
	p := xconnect()
	p.HandleFunc(events.BufferEnqueue, func(*pisa.Context) {})
	sw.MustLoad(p)
	var pktSlotWithEvents, eventSlots int
	sw.OnSlot = func(info SlotInfo) {
		if !info.Empty && len(info.Events) > 0 {
			pktSlotWithEvents++
		}
		if info.Empty && len(info.Events) > 0 {
			eventSlots++
		}
	}
	for i := 0; i < 5; i++ {
		sw.Inject(0, frame(100, 1, 2))
	}
	sched.Run(sim.Millisecond)
	if pktSlotWithEvents != 0 {
		t.Errorf("%d packet slots carried events despite NoPiggyback", pktSlotWithEvents)
	}
	if eventSlots != 5 {
		t.Errorf("event slots = %d, want 5", eventSlots)
	}
	if sw.Stats().TxPackets != 5 {
		t.Errorf("tx = %d", sw.Stats().TxPackets)
	}
}

// TestSlotScratchNoStaleEvents: what a slot carries from the parse and
// the merger into its handlers and on to the traffic manager is that
// slot's own, though the storage is reused without clearing.
func TestSlotScratchNoStaleEvents(t *testing.T) {
	t.Run("events", slotScratchEvents)
	t.Run("flow hash", slotScratchFlowHash)
}

// slotScratchEvents: a slot carrying three events is followed by a
// packet-only slot and by an empty-carrier slot with one event; every
// handler runs once per event merged, never on what an earlier slot left
// in the per-switch event scratch.
func slotScratchEvents(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{Name: "scratch"}, EventDriven(), sched)
	type call struct {
		cycle uint64
		kind  events.Kind
		data  uint64
	}
	var calls []call
	record := func(ctx *pisa.Context) {
		calls = append(calls, call{ctx.Cycle, ctx.Ev.Kind, ctx.Ev.Data})
		ctx.EgressPort = 1
	}
	prog := pisa.NewProgram("scratch")
	for _, k := range []events.Kind{events.IngressPacket, events.TimerExpiration, events.ControlPlaneTriggered, events.UserEvent} {
		prog.HandleFunc(k, record)
	}
	sw.MustLoad(prog)
	var slots []SlotInfo
	sw.OnSlot = func(info SlotInfo) { slots = append(slots, info) }
	settle := func() { sched.Run(sched.Now() + 4*sw.CycleTime()) }

	sw.Inject(0, frame(100, 1, 2))
	sw.InjectEvent(events.Event{Kind: events.UserEvent, Data: 13})
	sw.InjectEvent(events.Event{Kind: events.TimerExpiration, Data: 11})
	sw.InjectEvent(events.Event{Kind: events.ControlPlaneTriggered, Data: 12})
	settle()
	sw.Inject(0, frame(100, 1, 2))
	settle()
	sw.InjectEvent(events.Event{Kind: events.ControlPlaneTriggered, Data: 21})
	settle()

	if len(slots) != 3 || len(slots[0].Events) != 3 || len(slots[1].Events) != 0 || slots[1].Empty ||
		len(slots[2].Events) != 1 || !slots[2].Empty {
		t.Fatalf("slots = %+v, want packet+3 events, packet alone, empty carrier+1 event", slots)
	}
	want := []call{
		{1, events.IngressPacket, 0}, {1, events.TimerExpiration, 11}, {1, events.ControlPlaneTriggered, 12}, {1, events.UserEvent, 13},
		{slots[1].Cycle, events.IngressPacket, 0},
		{slots[2].Cycle, events.ControlPlaneTriggered, 21},
	}
	if len(calls) != len(want) {
		t.Fatalf("handlers ran %d times %+v, want %d", len(calls), calls, len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("handler call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
	st := sw.Stats()
	if st.EventsMerged[events.TimerExpiration] != 1 || st.EventsMerged[events.ControlPlaneTriggered] != 2 ||
		st.EventsMerged[events.UserEvent] != 1 || st.PacketSlots != 2 || st.EmptySlots != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// slotScratchFlowHash: the slot hashes the parsed flow once and the
// enqueue event reuses that hash — unless a handler replaced ctx.Flow or
// cleared ctx.FlowOK, in which case the event carries the hash of what the
// handler left (0 for no flow).
func slotScratchFlowHash(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{Name: "hash"}, EventDriven(), sched)
	other := packet.Flow{Src: 9, Dst: 8, SrcPort: 7, DstPort: 6, Proto: packet.ProtoTCP}
	var pktHash, enqHash []uint64
	prog := pisa.NewProgram("hash")
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		pktHash = append(pktHash, ctx.Ev.FlowHash)
		ctx.EgressPort = 1
		switch {
		case !ctx.FlowOK: // the ARP frame: no parsed flow to compare against
			ctx.Flow, ctx.FlowOK = packet.Flow{}, true
		case ctx.Flow.Src == packet.IP4(10, 0, 0, 2):
			ctx.Flow = other
		case ctx.Flow.Src == packet.IP4(10, 0, 0, 3):
			ctx.FlowOK = false
		}
	})
	prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		enqHash = append(enqHash, ctx.Ev.FlowHash)
	})
	sw.MustLoad(prog)
	kept, _ := packet.FlowOf(frame(100, 1, 9))
	replaced, _ := packet.FlowOf(frame(100, 2, 9))
	cleared, _ := packet.FlowOf(frame(100, 3, 9))
	arp := make([]byte, packet.MinFrameLen)
	copy(arp, packet.Broadcast[:])
	arp[12], arp[13] = 0x08, 0x06 // ARP, an EtherType the parser does not decode
	for _, f := range [][]byte{frame(100, 1, 9), frame(100, 2, 9), frame(100, 3, 9), arp} {
		sw.Inject(0, f)
		sched.Run(sched.Now() + 40*sw.CycleTime())
	}
	wantPkt := []uint64{kept.Hash(), replaced.Hash(), cleared.Hash(), 0}
	wantEnq := []uint64{kept.Hash(), other.Hash(), 0, packet.Flow{}.Hash()}
	if !slices.Equal(pktHash, wantPkt) {
		t.Errorf("packet events carried hashes %x, want %x", pktHash, wantPkt)
	}
	if !slices.Equal(enqHash, wantEnq) {
		t.Errorf("enqueue events carried hashes %x, want %x", enqHash, wantEnq)
	}
}
