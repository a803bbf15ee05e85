package core

import "repro/internal/events"

// InjectEvent offers an event directly to the merger's FIFOs, bypassing
// the hardware sources, so tests can fill a FIFO without the packets
// that would normally cause it. The event is subject to the same
// architecture/program gating and overflow policy as any other, and ok
// reports whether its state survived (stored or coalesced).
func (s *Switch) InjectEvent(e events.Event) (ok bool) {
	if s.handled&(1<<uint(e.Kind)) == 0 {
		return false
	}
	before := s.evq[e.Kind].Drops()
	s.pushEvent(&e)
	return s.evq[e.Kind].Drops() == before
}
