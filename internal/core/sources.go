package core

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Event sources and the Event Merger (paper Fig. 4, left half): every
// producer of work for the pipeline — wire arrivals, timers, the packet
// generator, link status, the control plane, the TM's tap — ends in a
// staging queue here, wake arms the cycle lane when one is non-empty, and
// popPacket/gatherEvents form each slot from them.

// genTemplate is a periodic packet-generator configuration.
type genTemplate struct {
	every  sim.Time
	make   func(seq uint64) ([]byte, int) // returns frame and suggested port (-1: route in pipeline)
	seq    uint64
	ticker *sim.Ticker
}

// pushEvent routes an event from any source — traffic manager, timers,
// link monitor, control plane, handlers — into the merger's FIFOs when the
// architecture exposes its kind and the program subscribes. It stamps
// e.Seq; the FIFO copies *e, so the source may reuse it at once.
func (s *Switch) pushEvent(e *events.Event) {
	if s.handled&(1<<uint(e.Kind)) == 0 {
		return
	}
	e.Seq = s.evSeq
	s.evSeq++
	out := s.evq[e.Kind].OfferRef(e)
	// Whatever the outcome, the FIFO is non-empty now: stored/coalesced
	// added or updated state, and a drop means it was already full.
	s.evMask |= 1 << uint(e.Kind)
	if s.tel != nil {
		s.tel.ObserveOffer(s.sched.Now(), *e, out)
	}
	switch out {
	case events.Coalesced:
		s.stats.EventsCoalesced[e.Kind]++
	case events.StoredShed:
		s.stats.EventsShed[e.Kind]++
	case events.Dropped:
		s.stats.EventsDropped[e.Kind]++
		return
	}
	s.wake()
}

// Inject delivers a fully received frame to an input port (the caller
// models wire timing). Frames arriving on a downed link are lost. The
// frame bytes are copied into a pooled packet before Inject returns, so
// the caller is free to reuse its buffer.
func (s *Switch) Inject(port int, data []byte) {
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("core: inject on invalid port %d", port))
	}
	if !s.linkUp[port] {
		s.stats.RxDropped++
		return
	}
	s.stats.RxPackets++
	s.stats.RxBytes += uint64(len(data))
	s.rxq[port].Push(s.pool.GetCopy(data, port))
	s.rxPending++
	s.wake()
}

// ConfigureTimer arms hardware timer id to fire TimerExpiration events
// with the given period. It errors if the architecture lacks timers or
// the id is out of range. Reconfiguring an armed timer replaces it.
func (s *Switch) ConfigureTimer(id int, period sim.Time) error {
	if s.arch.Timers == 0 {
		return fmt.Errorf("core: architecture %q has no timer block", s.arch.Name)
	}
	if id < 0 || id >= s.arch.Timers {
		return fmt.Errorf("core: timer id %d out of range (%d timers)", id, s.arch.Timers)
	}
	for len(s.timers) <= id {
		s.timers = append(s.timers, nil)
	}
	if s.timers[id] != nil {
		s.timers[id].Stop()
	}
	s.timers[id] = s.sched.Every(period, func() {
		s.pushEvent(&events.Event{
			Kind: events.TimerExpiration, When: s.sched.Now(), TimerID: int16(id), Port: -1,
		})
	})
	return nil
}

// StopTimer disarms timer id.
func (s *Switch) StopTimer(id int) {
	if id >= 0 && id < len(s.timers) && s.timers[id] != nil {
		s.timers[id].Stop()
		s.timers[id] = nil
	}
}

// AddGenerator configures the packet generator to emit a frame every
// period. mk builds each frame and names the output port — direct
// injection to the TM, as when the generator is configured with a fixed
// output port — or -1 (or any port the switch does not have) to let the
// pipeline route it: the frame then traverses the pipeline as a
// GeneratedPacket event. The returned frame is copied into a pooled
// packet before the next tick, so mk may reuse a scratch buffer. It
// errors when the architecture has no generator block.
func (s *Switch) AddGenerator(period sim.Time, mk func(seq uint64) (data []byte, port int)) error {
	if !s.arch.Generator {
		return fmt.Errorf("core: architecture %q has no packet generator", s.arch.Name)
	}
	g := &genTemplate{every: period, make: mk}
	s.gens = append(s.gens, g)
	g.ticker = s.sched.Every(period, func() {
		data, port := g.make(g.seq)
		g.seq++
		if data != nil && s.emit(data, port) {
			s.wake()
		}
	})
	return nil
}

// StopGenerators halts every configured packet generator.
func (s *Switch) StopGenerators() {
	for _, g := range s.gens {
		g.ticker.Stop()
	}
	s.gens = nil
}

// SetLink changes a port's link status, raising a LinkStatusChange event.
func (s *Switch) SetLink(port int, up bool) {
	if s.linkUp[port] == up {
		return
	}
	s.linkUp[port] = up
	s.pushEvent(&events.Event{
		Kind: events.LinkStatusChange, When: s.sched.Now(), Port: port, Up: up,
	})
	if up {
		s.pump(port)
	}
}

// TriggerControlEvent injects a ControlPlaneTriggered event carrying an
// opaque payload (the control plane's side channel into the data plane).
func (s *Switch) TriggerControlEvent(data uint64) {
	s.pushEvent(&events.Event{
		Kind: events.ControlPlaneTriggered, When: s.sched.Now(), Data: data, Port: -1,
	})
}

// --- the event merger and pipeline ---------------------------------------

func (s *Switch) haveEventWork() bool {
	return s.evMask&s.prioMask != 0
}

// haveWork reports whether anything needs a pipeline cycle: a packet for
// a slot, an event for the merger, or aggregation backlog to drain.
//
// Shaped to inline, on measurement: wake asks once per event and once per
// cycle, and as one out-of-line function it cost switch_linerate 7 %
// ns_per_cycle (9 of 10 alternating 4 s pairs). A received packet or a
// pending event decides nearly every call; whatever is left is one call.
func (s *Switch) haveWork() bool {
	return s.rxPending > 0 || s.haveEventWork() || s.haveOtherWork()
}

// haveOtherWork is haveWork's rare remainder: a recirculated or generated
// packet, or drain backlog. Out of line so that haveWork stays in budget.
//
//go:noinline
func (s *Switch) haveOtherWork() bool {
	return s.recirc.Len() > 0 || s.genq.Len() > 0 || s.haveDrainWork()
}

func (s *Switch) haveDrainWork() bool {
	return s.prog != nil && s.prog.HasBacklog()
}

// wake arms the next pipeline cycle if work is pending. The cycle runs
// on a scheduler lane: re-arming is two field writes, so runs of
// back-to-back cycles never touch the event heap and never allocate.
func (s *Switch) wake() {
	if s.cycleLane.Armed() || !s.haveWork() {
		return
	}
	at := s.nextCycleAt
	if now := s.sched.Now(); at < now {
		at = now
	}
	s.cycleLane.ArmAt(at)
}

// popPacket selects the slot's packet by merger priority: recirculated,
// then input ports (round-robin), then generated. Recirculated packets
// get at most every other slot when fresh arrivals are waiting, bounding
// the recirculation bandwidth the way real recirculation ports do (a
// program that recirculates forever cannot starve the wire).
func (s *Switch) popPacket() (*packet.Packet, events.Kind, bool) {
	rxPending := s.rxPending > 0
	if s.recirc.Len() > 0 && !(s.lastRecirc && rxPending) {
		s.lastRecirc = true
		return s.recirc.Pop(), events.RecirculatedPacket, true
	}
	s.lastRecirc = false
	if rxPending {
		for i := 0; i < s.cfg.Ports; i++ {
			p := (s.rxRR + i) % s.cfg.Ports
			if s.rxq[p].Len() > 0 {
				s.rxRR = (p + 1) % s.cfg.Ports
				s.rxPending--
				return s.rxq[p].Pop(), events.IngressPacket, true
			}
		}
	}
	if s.genq.Len() > 0 {
		return s.genq.Pop(), events.GeneratedPacket, true
	}
	return nil, 0, false
}

// gatherEvents pops the slot's events — at most one per kind, in merger
// priority order, up to the metadata bus width — straight from their
// FIFOs into the slot scratch, and returns how many it took.
func (s *Switch) gatherEvents() (n int) {
	if s.evMask&s.prioMask == 0 {
		return 0
	}
	maxEv := s.cfg.MaxEventsPerSlot
	for _, k := range s.cfg.MergerPriority {
		if maxEv > 0 && n >= maxEv {
			break
		}
		if s.evMask&(1<<uint(k)) == 0 {
			continue
		}
		q := s.evq[k]
		if q.PopInto(&s.slotEvents[n]) {
			s.slotKinds[n] = k
			n++
		}
		if q.Len() == 0 {
			s.evMask &^= 1 << uint(k)
		}
	}
	return n
}
