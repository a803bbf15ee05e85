package core

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
)

// Egress: everything between a forwarding decision and the wire — the TM
// handoff, the per-port transmitters, and the two ways a packet leaves
// the datapath other than by a port (emit brings one in, drop takes one
// out).

// enqueueOut hands a packet to the traffic manager and starts the port's
// transmitter if it is idle; a packet the TM refuses is dropped.
func (s *Switch) enqueueOut(pkt *packet.Packet, port int, flowHash uint64) {
	if !s.tmgr.Enqueue(pkt, port, 0, 0, flowHash, s.sched.Now()) {
		s.drop(pkt, "tm-overflow")
		return
	}
	s.pump(port)
}

// emit materializes a frame the generator block or a handler produced:
// onto the named port's output queue, or — for -1 and for any other port
// the switch does not have — onto genq to be routed by a pipeline slot as
// a GeneratedPacket, which it reports so that a caller outside a slot can
// wake the cycle lane.
func (s *Switch) emit(data []byte, port int) (queued bool) {
	s.stats.Generated++
	pkt := s.pool.GetCopy(data, -1)
	pkt.Gen = true
	if port >= 0 && port < s.cfg.Ports {
		s.enqueueOut(pkt, port, flowHashOf(data))
		return false
	}
	s.genq.Push(pkt)
	return true
}

// drop discards a packet the switch will not forward, telling OnDrop why.
func (s *Switch) drop(pkt *packet.Packet, reason string) {
	if s.OnDrop != nil {
		s.OnDrop(pkt, reason)
	}
	pkt.Release()
}

// pump starts transmitting on a port if it is idle and has queued work.
func (s *Switch) pump(port int) {
	if s.txPkt[port] != nil {
		return
	}
	pkt, ok := s.tmgr.Dequeue(port, s.sched.Now())
	if !ok {
		return
	}
	// PSA-style egress processing at dequeue time, when bound. The
	// context comes from a free list rather than being shared: the
	// handler's side effects (Emit -> enqueueOut -> pump) can re-enter
	// this function for another port, which then draws its own context.
	if s.prog != nil && s.prog.Handles(events.EgressPacket) && !pkt.Empty {
		var ctx *pisa.Context
		if n := len(s.egrFree); n > 0 {
			ctx = s.egrFree[n-1]
			s.egrFree = s.egrFree[:n-1]
		} else {
			ctx = &pisa.Context{}
		}
		ctx.Reset(pkt, &events.Event{
			Kind: events.EgressPacket, When: s.sched.Now(), Port: port, PktLen: int32(pkt.Len()),
		}, s.sched.Now(), s.cycleIdx)
		parseSlot(ctx)
		ctx.EgressPort = port
		s.prog.Apply(ctx)
		for i := range ctx.Raised {
			s.pushEvent(&ctx.Raised[i])
		}
		for _, g := range ctx.Generated {
			if s.emit(g.Data, g.Port) {
				s.wake()
			}
		}
		dropped := ctx.EgressPort == pisa.PortDrop
		s.egrFree = append(s.egrFree, ctx)
		if dropped {
			s.stats.PipelineDrops++
			s.drop(pkt, "egress-drop")
			s.pump(port)
			return
		}
	}
	if !s.linkUp[port] {
		s.stats.TxDroppedLinkDown++
		s.drop(pkt, "link-down")
		s.pump(port)
		return
	}
	s.txPkt[port] = pkt
	ser := s.cfg.LineRate.ByteTime(pkt.Len() + WireOverhead)
	at := s.sched.Now() + ser
	seq := s.sched.NextSeq()
	s.txPend = append(s.txPend, txDone{at: at, seq: seq, port: port})
	s.auxArmIfEarlier(at, seq, len(s.txPend)-1)
}

// txComplete finishes a port's in-flight transmission: the packet's last
// byte has left the wire. One packet is in flight per port at a time, so
// the pre-built per-port callback needs no per-packet closure.
func (s *Switch) txComplete(port int) {
	pkt := s.txPkt[port]
	s.txPkt[port] = nil
	s.stats.TxPackets++
	s.stats.TxBytes += uint64(pkt.Len())
	s.pushEvent(&events.Event{
		Kind: events.PacketTransmitted, When: s.sched.Now(),
		Port: port, PktLen: int32(pkt.Len()),
	})
	if s.OnTransmit != nil {
		// netsim's transmit hook copies the frame into its own pooled
		// buffers before returning, so the packet can be recycled here.
		s.OnTransmit(port, pkt)
	}
	pkt.Release()
	s.pump(port)
}

// flowHashOf computes the flow hash of a frame, or 0 for non-IP frames.
func flowHashOf(data []byte) uint64 {
	if f, ok := packet.FlowOf(data); ok {
		return f.Hash()
	}
	return 0
}
