package sim

import "repro/internal/telemetry/self"

// Action is a callback executed when a scheduled event fires.
type Action func()

// Run calls a. It makes every Action a Runner, so At is AtRunner: a
// func value is pointer-shaped, and converting it to the interface does
// not allocate.
func (a Action) Run() { a() }

// Runner is implemented by pooled callback objects. AtRunner/AfterRunner
// accept a Runner instead of a closure so hot paths that would otherwise
// allocate a capturing closure per call can schedule a long-lived object
// (typically drawn from a free list) with no per-call allocation.
type Runner interface {
	Run()
}

// wireEvent is an entry in the scheduler's wire band: an externally-keyed
// event (a frame arriving off a link) ordered by (at, k1, k2) rather than
// by insertion sequence. The key is engine-independent — it is derived
// from the link and the sender's per-direction frame counter, not from
// when this scheduler happened to learn about the frame — which is what
// lets a partitioned run schedule arrivals at barrier-drain time and
// still fire them in exactly the order the single-scheduler run would.
type wireEvent struct {
	at     Time
	k1, k2 uint64
	runner Runner
}

// wireHeap is a binary min-heap of wireEvents ordered by (at, k1, k2),
// sifted manually: container/heap would box every push through an
// interface and the wire band sits on the per-frame hot path.
type wireHeap []wireEvent

func (h wireHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].k1 != h[j].k1 {
		return h[i].k1 < h[j].k1
	}
	return h[i].k2 < h[j].k2
}

func (h *wireHeap) push(w wireEvent) {
	*h = append(*h, w)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *wireHeap) pop() wireEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = wireEvent{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// event is an entry in the event heap: a value, ordered by (at, seq).
type event struct {
	at  Time
	seq uint64 // insertion order; breaks ties deterministically
	run Runner
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of ordinary events ordered by (at, seq),
// sifted manually like wireHeap: container/heap dispatches Less/Swap
// through an interface on every comparison, and the event heap is the
// single hottest structure in the engine. Each sift holds the moving
// event aside and shifts the others into its path, one store per level.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&e, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(&q[r], &q[c]) {
			c = r
		}
		if !eventLess(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Scheduler is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in the order they were scheduled. Scheduler is
// not safe for concurrent use; a simulation is a single logical thread.
type Scheduler struct {
	now   Time
	seq   uint64
	queue eventHeap
	wire  wireHeap
	lanes laneHeap
	fired uint64

	// self is the run's wall-clock self-metrics plane, nil when nothing
	// observes the run (SetSelf). Whatever is built on this scheduler —
	// switches, their pools, networks — reaches the plane through Self.
	self *self.Plane
	// laneArms/auxArms count ArmAt and ArmExact calls; together with
	// fired they feed the plane. They are plain fields bumped on the
	// single-threaded hot path and published as deltas only at
	// Run/RunBefore exit (publishSelf), so the per-event cost of
	// observability is zero — not even an atomic.
	laneArms, auxArms uint64
	// pub* are the values already published to the self plane; the next
	// publishSelf adds only the difference.
	pubFired, pubLaneArms, pubAuxArms uint64

	// firing is the lane whose callback is running, for as long as it
	// still occupies lanes[0] (see the lane case of stepBounded); nil
	// otherwise. While it is set, lanes[0] is not an armed lane.
	firing *Lane
}

// NewScheduler returns a Scheduler with the clock at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// SetSelf hands the scheduler its run's self-metrics plane. Call it
// before building anything on the scheduler: components read Self once,
// at construction.
func (s *Scheduler) SetSelf(p *self.Plane) { s.self = p }

// Self returns the plane set by SetSelf, nil when the run is unobserved.
func (s *Scheduler) Self() *self.Plane { return s.self }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting to fire, armed lanes and
// tickers included.
func (s *Scheduler) Pending() int {
	n := len(s.queue) + len(s.wire) + len(s.lanes)
	if s.firing != nil {
		n--
	}
	return n
}

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at the absolute time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (s *Scheduler) At(at Time, fn Action) { s.AtRunner(at, fn) }

// AtRunner schedules r.Run to execute at the absolute time at. It is the
// allocation-free variant of At for pooled callback objects.
func (s *Scheduler) AtRunner(at Time, r Runner) {
	if at < s.now {
		// Instants are computed by in-tree code from Now; a past one is a bug.
		panic("sim: event scheduled in the past")
	}
	s.queue.push(event{at: at, seq: s.seq, run: r})
	s.seq++
}

// AfterRunner schedules r.Run to execute d after the current time.
func (s *Scheduler) AfterRunner(d Time, r Runner) {
	if d < 0 {
		// Delays come from in-tree link and pacing arithmetic, never raw input.
		panic("sim: negative delay")
	}
	s.AtRunner(s.now+d, r)
}

// AtWireRunner schedules r.Run on the wire band: at equal timestamps
// wire events fire before ordinary events and lanes, ordered among
// themselves by the caller-supplied key (k1, then k2). The key must be
// engine-independent (netsim uses k1 = directed-link id and k2 = the
// sender's frame counter on that direction) so that every partitioning
// of a topology fires the same arrivals in the same order.
func (s *Scheduler) AtWireRunner(at Time, k1, k2 uint64, r Runner) {
	if at < s.now {
		// Arrival instants are send time plus a non-negative link latency.
		panic("sim: wire event scheduled in the past")
	}
	s.wire.push(wireEvent{at: at, k1: k1, k2: k2, runner: r})
}

// Every schedules fn to run periodically with the given period, starting
// one period from now, until the returned Ticker is stopped. fn observes
// the scheduler time via Now. A ticker is a lane whose callback runs fn
// and then re-arms it one period on, so each firing draws its seq after
// fn has run, as an At call at the end of fn would.
func (s *Scheduler) Every(period Time, fn Action) *Ticker {
	if period <= 0 {
		// Periods are in-tree constants and app defaults; no flag sets one.
		panic("sim: non-positive period")
	}
	t := &Ticker{}
	t.lane = s.NewLane(func() {
		fn()
		if !t.stopped {
			t.lane.ArmAt(s.now + period)
		}
	})
	t.lane.ArmAt(s.now + period)
	return t
}

// Ticker repeatedly fires an action at a fixed period until stopped.
type Ticker struct {
	lane    *Lane
	stopped bool
}

// Stop cancels future firings, also from inside the ticker's own action.
// Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.lane.Disarm()
}

// Lane is a pre-registered periodic-work fast path: one pending
// occurrence of a fixed callback, re-armed by the callback itself. A
// self-rearming driver (the switch's pipeline cycle, a Ticker) that went
// through At would pay a push and a pop per firing on a heap as deep as
// everything the simulation has pending; a Lane is a long-lived record
// in a heap of its own, as deep as the lanes that have work.
//
// Armed lanes sit in a binary min-heap keyed (at, seq), each lane
// tracking its own heap index. The cost model: O(1) to peek the earliest
// lane (every Step and NextAt does), O(log L) to arm,
// re-arm, disarm or fire, where L is the number of lanes armed at that
// moment — not the number registered, so a fabric of many switches pays
// for the pipelines that are busy, not for the ones that exist. A lane
// re-armed from its own callback, the common case, costs one sift
// instead of a removal and an insertion (see stepBounded).
//
// Arming draws a sequence number from the same counter as At, so a lane
// firing orders against heap events exactly as the equivalent At call
// would: earlier-armed work fires first at the same instant.
type Lane struct {
	s     *Scheduler
	fn    Action
	at    Time
	seq   uint64
	index int // position in s.lanes; -1 while disarmed
}

// laneHeap is the binary min-heap of armed lanes ordered by (at, seq),
// sifted manually like eventHeap. Every move keeps the lane's index
// field current: re-arming and disarming locate the lane through it.
type laneHeap []*Lane

// laneLess orders lanes by (at, seq).
func laneLess(a, b *Lane) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property upward from index i.
func (h laneHeap) siftUp(i int) {
	l := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !laneLess(l, p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = l
	l.index = i
}

// siftDown restores the heap property downward from index i.
func (h laneHeap) siftDown(i int) {
	n := len(h)
	l := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && laneLess(h[r], h[c]) {
			c = r
		}
		if !laneLess(h[c], l) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = l
	l.index = i
}

// fix restores the heap property around index i after the lane there
// changed its key in either direction.
func (h laneHeap) fix(i int) {
	l := h[i]
	h.siftUp(i)
	if l.index == i {
		h.siftDown(i)
	}
}

// remove takes the lane at index i out of the heap and marks it disarmed.
func (h *laneHeap) remove(i int) {
	q := *h
	l := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if i < n {
		q[i] = last
		last.index = i
		q.fix(i)
	}
	l.index = -1
}

// NewLane registers fn as a lane on the scheduler. The callback is fixed
// for the lane's lifetime. A disarmed lane costs the scheduler nothing:
// only armed lanes occupy the lane heap.
func (s *Scheduler) NewLane(fn Action) *Lane {
	return &Lane{s: s, fn: fn, index: -1}
}

// arm gives the lane the key (at, seq) and puts it in heap order: a fix
// in place when it was already armed, one sift down from the root when
// it is re-arming from its own callback, a push otherwise.
func (l *Lane) arm(at Time, seq uint64) {
	l.at = at
	l.seq = seq
	s := l.s
	switch {
	case l.index >= 0:
		s.lanes.fix(l.index)
	case s.firing == l:
		s.firing = nil
		l.index = 0
		if len(s.lanes) > 1 {
			s.lanes.siftDown(0)
		}
	default:
		l.index = len(s.lanes)
		s.lanes = append(s.lanes, l)
		s.lanes.siftUp(l.index)
	}
}

// ArmAt schedules the lane's next firing at the absolute time at.
// Re-arming an armed lane moves its firing time. Arming in the past
// panics, like At.
func (l *Lane) ArmAt(at Time) {
	s := l.s
	if at < s.now {
		// Lane instants are computed by in-tree code from Now; a past one is a bug.
		panic("sim: lane armed in the past")
	}
	l.arm(at, s.seq)
	s.seq++
	s.laneArms++
}

// ArmExact arms the lane at explicit (at, seq) coordinates instead of
// drawing a fresh sequence number. The caller owns work that already has
// a position in the global event order — a conveyor entry that drew its
// seq (NextSeq) when it was scheduled — and the lane must fire in exactly
// that position. No past-check is applied: the coordinates were drawn
// when they were valid. The lane heap is keyed by the coordinates, so
// firing order does not depend on the order lanes are armed in.
func (l *Lane) ArmExact(at Time, seq uint64) {
	l.arm(at, seq)
	l.s.auxArms++
}

// Armed reports whether the lane has a pending firing.
func (l *Lane) Armed() bool { return l.index >= 0 }

// ArmedAt returns the lane's pending (at, seq); ok is false when the lane
// is not armed.
func (l *Lane) ArmedAt() (at Time, seq uint64, ok bool) {
	if l.index < 0 {
		return 0, 0, false
	}
	return l.at, l.seq, true
}

// Disarm cancels the pending firing, if any.
func (l *Lane) Disarm() {
	if l.index >= 0 {
		l.s.lanes.remove(l.index)
	}
}

// nextLane returns the earliest armed lane, or nil. While a firing lane
// holds the root, the earliest armed lane is the smaller of its children.
func (s *Scheduler) nextLane() *Lane {
	h := s.lanes
	if s.firing == nil {
		if len(h) == 0 {
			return nil
		}
		return h[0]
	}
	switch {
	case len(h) < 2:
		return nil
	case len(h) > 2 && laneLess(h[2], h[1]):
		return h[2]
	}
	return h[1]
}

// stepBounded is the fused core of Run/RunBefore: one candidate scan
// (heap head, earliest lane, wire head) picks the winner, checks it
// against the bound, and fires it. Run's old loop scanned every candidate
// twice per event — once in NextAt to test the horizon, once more to
// fire — and the scan is the engine's hottest code. It returns false
// without firing when nothing is pending or the earliest event lies past
// the bound (at > limit, or at == limit when strict).
func (s *Scheduler) stepBounded(limit Time, strict bool) bool {
	var ev *event
	if len(s.queue) > 0 {
		ev = &s.queue[0]
	}
	lane := s.nextLane()
	// Earliest ordinary candidate (heap event vs lane), resolved by the
	// shared seq counter at equal times.
	evWins := ev != nil && (lane == nil || ev.at < lane.at || (ev.at == lane.at && ev.seq < lane.seq))
	ordinaryAt := Forever
	if evWins {
		ordinaryAt = ev.at
	} else if lane != nil {
		ordinaryAt = lane.at
	}
	if len(s.wire) > 0 && s.wire[0].at <= ordinaryAt {
		at := s.wire[0].at
		if at > limit || (strict && at == limit) {
			return false
		}
		w := s.wire.pop()
		s.now = at
		s.fired++
		w.runner.Run()
		return true
	}
	switch {
	case ev == nil && lane == nil:
		return false
	case evWins:
		if ev.at > limit || (strict && ev.at == limit) {
			return false
		}
		e := s.queue.pop()
		s.now = e.at
		s.fired++
		e.run.Run()
	default:
		if lane.at > limit || (strict && lane.at == limit) {
			return false
		}
		// Most lane callbacks re-arm their own lane, so the firing lane is
		// not removed up front. It keeps the root slot, disarmed and keyed
		// below every reachable instant so nothing armed meanwhile sifts
		// past it; re-arming it is then one sift down from the root, and
		// only a callback that leaves it disarmed pays for the removal.
		if s.firing != nil {
			// Only the top-level run loops step; no in-tree callback does.
			panic("sim: scheduler stepped from inside a lane callback")
		}
		s.now = lane.at
		lane.index = -1
		lane.at = -Forever
		s.firing = lane
		s.fired++
		lane.fn()
		if s.firing == lane {
			s.firing = nil
			s.lanes.remove(0)
		}
	}
	return true
}

// NextSeq draws and consumes the next sequence number from the shared
// insertion counter without scheduling anything. It is the conveyor
// primitive: a component that manages its own future-work FIFO (the
// switch's pipeline conveyor) stamps each entry with the seq the
// equivalent AfterRunner call would have drawn, so the entry keeps an exact
// position in the global event order without ever touching the heap.
func (s *Scheduler) NextSeq() uint64 {
	n := s.seq
	s.seq++
	return n
}

// NextAt returns the time of the earliest pending event and whether one
// exists.
func (s *Scheduler) NextAt() (Time, bool) {
	at := Forever
	ok := false
	if len(s.queue) > 0 {
		at, ok = s.queue[0].at, true
	}
	if lane := s.nextLane(); lane != nil && lane.at < at {
		at, ok = lane.at, true
	}
	if len(s.wire) > 0 && s.wire[0].at < at {
		at, ok = s.wire[0].at, true
	}
	return at, ok
}

// publishSelf pushes the delta of fired/arm counts accumulated since the
// last publish into the wall-clock self-metrics plane. Called at run
// exits only; a no-op without a plane. A zero delta writes nothing: the
// plane's counters are shared by every domain of a partition.
func (s *Scheduler) publishSelf() {
	p := s.self
	if p == nil {
		return
	}
	if s.fired > s.pubFired {
		p.SchedDispatch.Add(s.fired - s.pubFired)
	}
	if s.laneArms > s.pubLaneArms {
		p.SchedLaneArms.Add(s.laneArms - s.pubLaneArms)
	}
	if s.auxArms > s.pubAuxArms {
		p.SchedAuxArms.Add(s.auxArms - s.pubAuxArms)
	}
	s.pubFired, s.pubLaneArms, s.pubAuxArms = s.fired, s.laneArms, s.auxArms
}

// Run executes events until the queue drains or the clock would pass
// until. The clock is left at the later of its current value and until,
// also when the queue drained earlier. It returns the number of events
// executed.
func (s *Scheduler) Run(until Time) uint64 {
	start := s.fired
	for s.stepBounded(until, false) {
	}
	if s.now < until {
		s.now = until
	}
	s.publishSelf()
	return s.fired - start
}

// RunBefore executes events strictly before limit and returns the number
// executed. Unlike Run it leaves the clock at the last fired event (or
// untouched when nothing fired): it is the windowed-execution primitive
// for Partition, where a domain must not observe — or claim to have
// reached — any instant at or past the window edge, because a frame from
// another domain may still arrive exactly at limit.
func (s *Scheduler) RunBefore(limit Time) uint64 {
	start := s.fired
	for s.stepBounded(limit, true) {
	}
	s.publishSelf()
	return s.fired - start
}
