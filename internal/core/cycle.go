package core

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
)

// The pipeline cycle: runCycle fires on the cycle lane and runs one slot,
// runSlot is the slot itself, finishSlot applies a slot's side effects.

// runCycle fires on the cycle lane: one pipeline slot per firing, then
// the lane is re-armed one period later if any work is left — a packet,
// an event, or aggregation backlog to drain.
func (s *Switch) runCycle() {
	s.runSlot()
	if s.tel != nil {
		s.tel.Cycles.Inc()
	}
	s.wake()
}

// runSlot executes one pipeline cycle: the Event Merger forms a slot
// (packet plus up to one event per kind), the program's handlers run, and
// the aggregation registers drain with leftover bandwidth. A cycle with
// neither a packet nor an event is a pure drain cycle.
func (s *Switch) runSlot() {
	now := s.sched.Now()
	s.cycleIdx++
	s.nextCycleAt = now + s.cycleTime
	s.stats.Cycles++

	cycle := s.cycleIdx
	if s.prog != nil {
		s.prog.Tick(cycle)
	}

	// In the ablation's no-piggyback mode, a slot with pending events
	// carries only events (an empty packet), and packets wait.
	var nEvents int
	var pkt *packet.Packet
	var pktKind events.Kind
	var havePkt bool
	if s.cfg.NoPiggyback {
		nEvents = s.gatherEvents()
		if nEvents == 0 {
			pkt, pktKind, havePkt = s.popPacket()
		}
	} else {
		pkt, pktKind, havePkt = s.popPacket()
		nEvents = s.gatherEvents()
	}

	switch {
	case havePkt:
		s.stats.PacketSlots++
		if s.tel != nil {
			s.tel.ObserveSlotStart(now, cycle, pktKind, true)
		}
	case nEvents > 0:
		// No packet on the wire: the merger injects an empty packet to
		// carry the event metadata (paper §5). The carrier is reused
		// across slots — it never leaves the pipeline (finishSlot skips
		// packet-less slots), so one struct per switch suffices.
		s.emptyPkt = packet.Packet{Empty: true, InPort: -1}
		pkt = &s.emptyPkt
		s.stats.EmptySlots++
		if s.tel != nil {
			s.tel.ObserveSlotStart(now, cycle, pktKind, false)
		}
	default:
		// Pure drain cycle: spare bandwidth applies aggregated updates.
		s.stats.DrainSlots++
		if s.tel != nil {
			s.tel.DrainSlots.Inc()
		}
		if s.prog != nil {
			s.prog.EndCycle()
		}
		return
	}

	if s.OnSlot != nil {
		info := SlotInfo{Cycle: cycle, At: now, PktKind: pktKind, PktLen: pkt.Len(), Empty: pkt.Empty}
		for i := 0; i < nEvents; i++ {
			info.Events = append(info.Events, s.slotKinds[i])
		}
		s.OnSlot(info)
	}

	ctx := &s.ctx
	pktEv := events.Event{Kind: pktKind, When: now, Port: pkt.InPort, PktLen: pkt.Len()}
	ctx.Reset(pkt, &pktEv, now, cycle)

	// The parsed flow and its hash outlive the handlers: the enqueue
	// annotation reuses the hash unless a handler replaced ctx.Flow.
	var parsed packet.Flow
	var parsedOK bool
	var parsedHash uint64
	if havePkt && s.prog != nil {
		parseSlot(ctx)
		parsed, parsedOK = ctx.Flow, ctx.FlowOK
		if parsedOK {
			// Packet events carry the flow hash, like the paper's
			// ingress logic initializing enq_meta.flowID.
			parsedHash = parsed.Hash()
			ctx.Ev.FlowHash = parsedHash
		}
		if s.prog.Handles(pktKind) {
			s.stats.EventsMerged[pktKind]++
			if s.tel != nil {
				s.tel.Merged[pktKind].Inc()
			}
			s.prog.Apply(ctx)
		}
	}
	if s.prog != nil {
		for i := 0; i < nEvents; i++ {
			ctx.Ev = s.slotEvents[i]
			k := s.slotKinds[i]
			s.stats.EventsMerged[k]++
			if s.tel != nil {
				s.tel.Merged[k].Inc()
				s.tel.ObserveMerge(now, cycle, ctx.Ev, havePkt)
			}
			s.prog.Apply(ctx)
		}
	}

	var fh uint64
	if ctx.FlowOK {
		fh = parsedHash
		if !parsedOK || ctx.Flow != parsed {
			fh = ctx.Flow.Hash()
		}
	}
	s.finishSlot(ctx, havePkt, fh)

	if s.prog != nil {
		s.prog.EndCycle()
	}
}

// parseSlot decodes the context's packet once; the 5-tuple comes from the
// layers just decoded (packet.Parser.Flow), not from a second walk.
func parseSlot(ctx *pisa.Context) {
	_ = ctx.Parsed.Decode(ctx.Pkt.Data, &ctx.Decoded)
	ctx.Flow, ctx.FlowOK = ctx.Parsed.Flow(ctx.Pkt.Data, ctx.Decoded)
}

// finishSlot applies the slot's side effects: user events, generated
// packets, recirculation, and the forwarding decision (flowHash annotates
// the packet's enqueue/dequeue events).
func (s *Switch) finishSlot(ctx *pisa.Context, havePkt bool, flowHash uint64) {
	for i := range ctx.Raised {
		s.pushEvent(&ctx.Raised[i])
	}
	for _, g := range ctx.Generated {
		// No wake for a packet queued for a slot: runCycle re-arms after
		// the slot, and arming here would draw the lane's seq early.
		s.emit(g.Data, g.Port)
	}
	if !havePkt {
		return
	}
	pkt := ctx.Pkt
	if ctx.Recirculate {
		cl := pkt
		cl.Recirc++
		s.stats.Recirculated++
		s.recirc.Push(cl)
		return
	}
	if ctx.EgressPort == pisa.PortDrop {
		s.stats.PipelineDrops++
		s.drop(pkt, "pipeline-drop")
		return
	}
	if ctx.EgressPort < 0 || ctx.EgressPort >= s.cfg.Ports {
		s.stats.PipelineDrops++
		s.drop(pkt, "bad-egress-port")
		return
	}
	s.enqueueOutDelayed(pkt, ctx.EgressPort, flowHash)
}
