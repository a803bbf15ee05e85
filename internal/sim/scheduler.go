package sim

import "repro/internal/telemetry/self"

// Action is a callback executed when a scheduled event fires.
type Action func()

// Runner is implemented by pooled callback objects. AtRunner/AfterRunner
// accept a Runner instead of a closure so hot paths that would otherwise
// allocate a capturing closure per call can schedule a long-lived object
// (typically drawn from a free list) with no per-call allocation.
type Runner interface {
	Run()
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles stay safe after the event fires: the
// scheduler recycles event records through a free list, and each reuse
// bumps a generation counter that stale handles fail to match.
type Handle struct {
	ev  *schedEvent
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.cancelled = true
	}
}

type schedEvent struct {
	at        Time
	seq       uint64 // insertion order; breaks ties deterministically
	gen       uint64 // bumped on every free-list recycle; validates Handles
	fn        Action
	runner    Runner
	index     int // heap index
	cancelled bool
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

// eventHeap is a binary min-heap of ordinary events ordered by (at, seq),
// sifted manually like wireHeap: container/heap dispatches Less/Swap
// through an interface on every comparison, and the event heap is the
// single hottest structure in the engine. Each event's index field is
// kept current on every move — Handle cancellation relies on it.
type eventHeap []*schedEvent

// heapLess orders events by (at, seq).
func heapLess(a, b *schedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapSiftUp restores the heap property upward from index i, holding the
// moving event in a register and shifting parents down (one store per
// level instead of a full swap).
func (s *Scheduler) heapSiftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !heapLess(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// heapSiftDown restores the heap property downward from index i.
func (s *Scheduler) heapSiftDown(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && heapLess(q[r], q[l]) {
			min = r
		}
		if !heapLess(q[min], ev) {
			break
		}
		q[i] = q[min]
		q[i].index = i
		i = min
	}
	q[i] = ev
	ev.index = i
}

// heapPush appends ev and sifts it into place.
func (s *Scheduler) heapPush(ev *schedEvent) {
	ev.index = len(s.queue)
	s.queue = append(s.queue, ev)
	s.heapSiftUp(ev.index)
}

// heapPopHead removes and returns the heap head.
func (s *Scheduler) heapPopHead() *schedEvent {
	q := s.queue
	ev := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		s.heapSiftDown(0)
	}
	return ev
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
	free  []*schedEvent
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

// Pending returns the number of events waiting to fire (including
// cancelled events not yet discarded and armed lanes).
func (s *Scheduler) Pending() int {
	n := len(s.queue) + len(s.wire) + len(s.lanes)
	if s.firing != nil {
		n--
	}
	return n
}

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// alloc draws an event record from the free list, or allocates one.
func (s *Scheduler) alloc() *schedEvent {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return &schedEvent{}
}

// release returns a fired or cancelled event record to the free list,
// invalidating outstanding Handles via the generation counter.
func (s *Scheduler) release(ev *schedEvent) {
	ev.gen++
	ev.fn = nil
	ev.runner = nil
	ev.cancelled = false
	s.free = append(s.free, ev)
}

// At schedules fn to run at the absolute time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (s *Scheduler) At(at Time, fn Action) Handle {
	ev := s.schedule(at)
	ev.fn = fn
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn Action) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now+d, fn)
}

// AtRunner schedules r.Run to execute at the absolute time at. It is the
// allocation-free variant of At for pooled callback objects.
func (s *Scheduler) AtRunner(at Time, r Runner) Handle {
	ev := s.schedule(at)
	ev.runner = r
	return Handle{ev: ev, gen: ev.gen}
}

// AfterRunner schedules r.Run to execute d after the current time.
func (s *Scheduler) AfterRunner(d Time, r Runner) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.AtRunner(s.now+d, r)
}

func (s *Scheduler) schedule(at Time) *schedEvent {
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	ev := s.alloc()
	ev.at = at
	ev.seq = s.seq
	s.seq++
	s.heapPush(ev)
	return ev
}

// AtWireRunner schedules r.Run on the wire band: at equal timestamps
// wire events fire before ordinary events and lanes, ordered among
// themselves by the caller-supplied key (k1, then k2). The key must be
// engine-independent (netsim uses k1 = directed-link id and k2 = the
// sender's frame counter on that direction) so that every partitioning
// of a topology fires the same arrivals in the same order. Wire events
// cannot be cancelled.
func (s *Scheduler) AtWireRunner(at Time, k1, k2 uint64, r Runner) {
	if at < s.now {
		panic("sim: wire event scheduled in the past")
	}
	s.wire.push(wireEvent{at: at, k1: k1, k2: k2, runner: r})
}

// Every schedules fn to run periodically with the given period, starting
// one period from now. The returned Ticker can be stopped. fn observes the
// scheduler time via Now.
func (s *Scheduler) Every(period Time, fn Action) *Ticker {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.h = t.s.After(t.period, t.tick)
		}
	}
	t.h = s.After(period, t.tick)
	return t
}

// Ticker repeatedly fires an action at a fixed period until stopped.
type Ticker struct {
	s       *Scheduler
	period  Time
	fn      Action
	tick    Action // created once; re-arming does not allocate
	h       Handle
	stopped bool
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}

// Lane is a pre-registered periodic-work fast path: one pending
// occurrence of a fixed callback, re-armed by the callback itself. A
// self-rearming driver (the switch's pipeline cycle) that went through
// At would pay an event-record recycle and a closure or Runner
// indirection per firing, on a heap as deep as everything the simulation
// has pending; a Lane is a long-lived record in a heap of its own, as
// deep as the lanes that have work.
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

// peekHeap discards cancelled events from the heap head and returns the
// next live event without removing it, or nil.
func (s *Scheduler) peekHeap() *schedEvent {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if !ev.cancelled {
			return ev
		}
		s.heapPopHead()
		s.release(ev)
	}
	return nil
}

// stepBounded is the fused core of Run/RunBefore: one candidate scan
// (heap head, earliest lane, wire head) picks the winner, checks it
// against the bound, and fires it. Run's old loop scanned every candidate
// twice per event — once in NextAt to test the horizon, once more to
// fire — and the scan is the engine's hottest code. It returns false
// without firing when nothing is pending or the earliest event lies past
// the bound (at > limit, or at == limit when strict).
func (s *Scheduler) stepBounded(limit Time, strict bool) bool {
	ev := s.peekHeap()
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
		s.heapPopHead()
		s.now = ev.at
		fn, runner := ev.fn, ev.runner
		s.release(ev)
		s.fired++
		if runner != nil {
			runner.Run()
		} else {
			fn()
		}
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
// equivalent After call would have drawn, so the entry keeps an exact
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
	if ev := s.peekHeap(); ev != nil {
		at, ok = ev.at, true
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
// until. The clock is left at the later of its current value and until
// (unless the queue drained earlier, in which case it rests at the last
// fired event). It returns the number of events executed.
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
