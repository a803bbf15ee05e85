package sim

// This file holds the scheduler-side half of the checkpoint/restore
// protocol (DESIGN.md §13). Closures in the event heap cannot be
// serialized, so a checkpoint never captures the heap itself. Instead,
// each component records the (at, seq) coordinates of its own pending
// events alongside its data state; on restore the simulation is rebuilt
// through the normal construction path, each component re-creates its
// pending events with RestoreAt/RestoreAtRunner (which replay the exact
// sequence numbers), and finally RestoreClock pins now/seq/fired.
// Because restore runs with the clock still at zero, re-created events
// can never trip the scheduled-in-the-past panic.

// When returns the (at, seq) coordinates of the pending event behind h,
// for checkpointing. ok is false once the event has fired or been
// cancelled.
func (h Handle) When() (at Time, seq uint64, ok bool) {
	if !h.Pending() {
		return 0, 0, false
	}
	return h.ev.at, h.ev.seq, true
}

// ClockState is the scheduler's restart-critical counters.
type ClockState struct {
	Now   Time
	Seq   uint64
	Fired uint64
}

// Clock returns the scheduler's counters for checkpointing.
func (s *Scheduler) Clock() ClockState {
	return ClockState{Now: s.now, Seq: s.seq, Fired: s.fired}
}

// RestoreClock pins the scheduler's counters from a checkpoint. Call it
// after every component has re-created its pending events: RestoreAt
// bypasses the shared seq counter, so the counter must be forced past
// every replayed sequence number in one final step.
func (s *Scheduler) RestoreClock(c ClockState) {
	s.now = c.Now
	s.seq = c.Seq
	s.fired = c.Fired
}

// RestoreAt re-creates a checkpointed pending event with its original
// (at, seq) coordinates. Unlike At it does not draw from (or advance)
// the scheduler's seq counter; the caller restores the counter with
// RestoreClock once all events are back.
func (s *Scheduler) RestoreAt(at Time, seq uint64, fn Action) Handle {
	ev := s.restoreEvent(at, seq)
	ev.fn = fn
	return Handle{ev: ev, gen: ev.gen}
}

// RestoreAtRunner is RestoreAt for pooled callback objects.
func (s *Scheduler) RestoreAtRunner(at Time, seq uint64, r Runner) Handle {
	ev := s.restoreEvent(at, seq)
	ev.runner = r
	return Handle{ev: ev, gen: ev.gen}
}

func (s *Scheduler) restoreEvent(at Time, seq uint64) *schedEvent {
	ev := s.alloc()
	ev.at = at
	ev.seq = seq
	s.heapPush(ev)
	return ev
}

// DropFired removes every pending ordinary event strictly ordered before
// (at, seq): the coordinates of the checkpoint event whose callback took
// the snapshot. A restored run re-executes the original construction
// path, which re-schedules setup events (link transitions, pause
// windows, unrolled fault storms) with the same deterministic (at, seq)
// coordinates they had originally; the ones ordered before the
// checkpoint had already fired and must not fire again. Call it after
// construction and component restores, before RestoreClock. It returns
// the number of events discarded.
func (s *Scheduler) DropFired(at Time, seq uint64) int {
	var dropped []*schedEvent
	kept := s.queue[:0]
	for _, ev := range s.queue {
		if ev.at < at || (ev.at == at && ev.seq < seq) {
			dropped = append(dropped, ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	for i := range s.queue {
		s.queue[i].index = i
	}
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.heapSiftDown(i)
	}
	for _, ev := range dropped {
		s.release(ev)
	}
	return len(dropped)
}

// ArmedAt returns the lane's pending (at, seq), for checkpointing.
func (l *Lane) ArmedAt() (at Time, seq uint64, ok bool) {
	if l.index < 0 {
		return 0, 0, false
	}
	return l.at, l.seq, true
}

// TickerState is a Ticker's checkpointable state: whether it is stopped
// and, if a firing is pending, its coordinates.
type TickerState struct {
	Stopped bool
	Pending bool
	At      Time
	Seq     uint64
}

// State returns the ticker's checkpointable state.
func (t *Ticker) State() TickerState {
	st := TickerState{Stopped: t.stopped}
	if at, seq, ok := t.h.When(); ok {
		st.Pending, st.At, st.Seq = true, at, seq
	}
	return st
}

// RestoreState re-arms the ticker from a checkpointed state. The ticker
// must have been rebuilt by the same Every call that originally created
// it (so its period and callback match); RestoreState cancels the
// freshly armed firing and replays the checkpointed one.
func (t *Ticker) RestoreState(st TickerState) {
	t.h.Cancel()
	t.stopped = st.Stopped
	if st.Pending {
		t.h = t.s.RestoreAt(st.At, st.Seq, t.tick)
	}
}

// State returns the RNG's internal xoshiro256** state, for
// checkpointing mid-stream positions.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores an RNG to a previously captured stream position.
func (r *RNG) SetState(s [4]uint64) { r.s = s }
