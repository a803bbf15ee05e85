package sim

import (
	"fmt"
	"testing"
)

// refNextLane is the test-only reference for the lane heap: the linear
// scan the heap replaced. It walks every registered lane and keeps the
// earliest armed one by (at, seq).
func refNextLane(lanes []*Lane) *Lane {
	var best *Lane
	for _, l := range lanes {
		at, seq, ok := l.ArmedAt()
		if !ok {
			continue
		}
		if best == nil || at < best.at || (at == best.at && seq < best.seq) {
			best = l
		}
	}
	return best
}

// refPending is one pending At or AtWireRunner event in the reference model.
// Ordinary events order by (at, k1) with k1 the seq; wire events by
// (at, k1, k2).
type refPending struct {
	at     Time
	k1, k2 uint64
	id     int
}

func (p refPending) before(q refPending) bool {
	if p.at != q.at {
		return p.at < q.at
	}
	if p.k1 != q.k1 {
		return p.k1 < q.k1
	}
	return p.k2 < q.k2
}

func refMin(ps []refPending) (best int) {
	best = -1
	for i := range ps {
		if best < 0 || ps[i].before(ps[best]) {
			best = i
		}
	}
	return best
}

// laneDiff drives one scheduler through random lane, heap and wire
// traffic while predicting every firing from a naive model: linear scans
// over all lanes and over its own lists of pending events, combined by
// the documented rule (wire band first at equal instants, then ordinary
// events and lanes by shared seq).
type laneDiff struct {
	t      *testing.T
	s      *Scheduler
	rng    *RNG
	lanes  []*Lane
	evs    []refPending // pending At events, k1 = seq
	wires  []refPending // pending AtWireRunner events
	spare  []uint64     // seqs reserved with NextSeq, for ArmExact
	nextID int          // lanes are ids 0..len(lanes)-1; events count up from there
	wireK2 uint64
	fired  int // id of the last callback that ran
	step   int
}

// mutate performs up to three random scheduling operations. self is the
// lane whose callback is running, or -1 outside a lane callback.
func (d *laneDiff) mutate(self int) {
	now := d.s.Now()
	pick := func() *Lane { return d.lanes[d.rng.Intn(len(d.lanes))] }
	for n := d.rng.Intn(4); n > 0; n-- {
		switch d.rng.Intn(8) {
		case 0: // re-arm from own callback, possibly at the current instant
			if self >= 0 {
				d.lanes[self].ArmAt(now + Time(d.rng.Intn(4)))
			}
		case 1: // arm or move another lane
			pick().ArmAt(now + Time(d.rng.Intn(6)))
		case 2, 3: // arm at an older, reserved seq: ties on at resolve by it
			if m := len(d.spare); m > 0 {
				i := d.rng.Intn(m)
				seq := d.spare[i]
				d.spare[i] = d.spare[m-1]
				d.spare = d.spare[:m-1]
				pick().ArmExact(now+Time(d.rng.Intn(4)), seq)
			}
		case 4:
			pick().Disarm()
		case 5:
			id, at := d.nextID, now+Time(d.rng.Intn(5))
			d.nextID++
			d.evs = append(d.evs, refPending{at: at, k1: d.s.seq, id: id})
			d.s.At(at, func() { d.fired = id; d.mutate(-1) })
		case 6:
			id, at, k1 := d.nextID, now+Time(d.rng.Intn(5)), uint64(d.rng.Intn(3))
			d.nextID++
			d.wireK2++
			d.wires = append(d.wires, refPending{at: at, k1: k1, k2: d.wireK2, id: id})
			d.s.AtWireRunner(at, k1, d.wireK2, Action(func() { d.fired = id; d.mutate(-1) }))
		case 7:
			d.spare = append(d.spare, d.s.NextSeq())
		}
	}
	d.check()
}

// expect predicts the next firing from the model, removing it from the
// model's pending lists. ok is false when nothing is pending.
func (d *laneDiff) expect() (id int, at Time, ok bool) {
	lane := refNextLane(d.lanes)
	ei := refMin(d.evs)
	ordinary := refPending{at: Forever}
	if ei >= 0 {
		ordinary = d.evs[ei]
	}
	laneWins := lane != nil && (refPending{at: lane.at, k1: lane.seq}).before(ordinary)
	if laneWins {
		ordinary = refPending{at: lane.at, id: lane2id(d.lanes, lane)}
	}
	if wi := refMin(d.wires); wi >= 0 && d.wires[wi].at <= ordinary.at {
		w := d.wires[wi]
		d.wires = append(d.wires[:wi], d.wires[wi+1:]...)
		return w.id, w.at, true
	}
	switch {
	case laneWins:
	case ei >= 0:
		d.evs = append(d.evs[:ei], d.evs[ei+1:]...)
	default:
		return 0, 0, false
	}
	return ordinary.id, ordinary.at, true
}

func lane2id(lanes []*Lane, l *Lane) int {
	for i := range lanes {
		if lanes[i] == l {
			return i
		}
	}
	return -1
}

// check compares the scheduler's own view of what is pending with the
// model's, and the heap's index bookkeeping with the lanes' state. It
// runs after every batch of operations, inside callbacks too — where the
// firing lane, disarmed, still holds the heap's root slot.
func (d *laneDiff) check() {
	d.t.Helper()
	armed := 0
	for _, l := range d.lanes {
		if l.Armed() {
			armed++
		}
	}
	if got, want := d.s.Pending(), len(d.evs)+len(d.wires)+armed; got != want {
		d.t.Fatalf("step %d: Pending = %d, want %d (%d armed lanes)", d.step, got, want, armed)
	}
	inHeap := d.s.lanes
	if d.s.firing != nil {
		if inHeap[0] != d.s.firing || d.s.firing.Armed() {
			d.t.Fatalf("step %d: firing lane is not a disarmed root", d.step)
		}
		inHeap = inHeap[1:]
	}
	if len(inHeap) != armed {
		d.t.Fatalf("step %d: lane heap holds %d armed lanes, %d are armed", d.step, len(inHeap), armed)
	}
	for i, l := range d.s.lanes {
		if l != d.s.firing && l.index != i {
			d.t.Fatalf("step %d: lane at heap slot %d records index %d", d.step, i, l.index)
		}
	}
	if got, want := d.s.nextLane(), refNextLane(d.lanes); got != want {
		d.t.Fatalf("step %d: earliest lane is %d, linear scan finds lane %d",
			d.step, lane2id(d.lanes, got), lane2id(d.lanes, want))
	}
}

// TestLaneHeapMatchesLinearScan is the differential test for the lane
// heap: 256 lanes under mixed ArmAt / ArmExact (older seqs, equal
// timestamps) / Disarm / re-arm-from-own-callback / re-arm-another-lane
// traffic, interleaved with At and AtWireRunner events, must fire in exactly
// the order the naive linear-scan model predicts, firing by firing.
func TestLaneHeapMatchesLinearScan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		d := &laneDiff{t: t, s: NewScheduler(), rng: NewRNG(seed)}
		const L = 256
		d.nextID = L
		for i := 0; i < L; i++ {
			i := i
			d.lanes = append(d.lanes, d.s.NewLane(func() { d.fired = i; d.mutate(i) }))
		}
		laneFirings := 0
		for step := 0; step < 30000; step++ {
			d.step = step
			d.mutate(-1)
			id, at, ok := d.expect()
			nextAt, pending := d.s.NextAt()
			if pending != ok || (ok && nextAt != at) {
				t.Fatalf("seed %d step %d: NextAt = (%v, %v), model says (%v, %v)", seed, step, nextAt, pending, at, ok)
			}
			d.fired = -1
			if stepped := d.s.Step(); stepped != ok {
				t.Fatalf("seed %d step %d: Step = %v, model says %v", seed, step, stepped, ok)
			}
			if !ok {
				continue
			}
			if d.fired != id || d.s.Now() != at {
				t.Fatalf("seed %d step %d: fired id %d at %v, model says id %d at %v",
					seed, step, d.fired, d.s.Now(), id, at)
			}
			if id < L {
				laneFirings++
			}
		}
		if laneFirings < 5000 {
			t.Errorf("seed %d: only %d lane firings in 30000 steps; the mix is not exercising lanes", seed, laneFirings)
		}
	}
}

// perm returns a pseudo-random permutation of [0, n) drawn from r.
func perm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// TestRestoreArmShuffledOrder arms 64 lanes (with ties on the instant),
// then arms the same coordinates with ArmExact into a fresh scheduler in
// shuffled order: the heap is built by a different insertion sequence
// and must still fire in the identical order.
func TestRestoreArmShuffledOrder(t *testing.T) {
	const L = 64
	run := func(arm func(lanes []*Lane, s *Scheduler)) []int {
		s := NewScheduler()
		var order []int
		lanes := make([]*Lane, L)
		for i := range lanes {
			i := i
			lanes[i] = s.NewLane(func() { order = append(order, i) })
		}
		arm(lanes, s)
		for s.Step() {
		}
		return order
	}

	type coord struct {
		at  Time
		seq uint64
	}
	coords := make([]coord, L)
	want := run(func(lanes []*Lane, s *Scheduler) {
		rng := NewRNG(7)
		for i, l := range lanes {
			l.ArmAt(Time(1 + rng.Intn(8))) // eight instants: every one is shared
			coords[i].at, coords[i].seq, _ = l.ArmedAt()
		}
	})
	got := run(func(lanes []*Lane, s *Scheduler) {
		for _, i := range perm(NewRNG(11), L) {
			lanes[i].ArmExact(coords[i].at, coords[i].seq)
		}
	})
	if len(want) != L || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored firing order\n got %v\nwant %v", got, want)
	}
}

// TestPendingArmedDisarmedLanes verifies Pending counts exactly the
// armed lanes: registering costs nothing, and disarming, re-arming and
// firing each move the count by one.
func TestPendingArmedDisarmedLanes(t *testing.T) {
	s := NewScheduler()
	lanes := make([]*Lane, 5)
	for i := range lanes {
		lanes[i] = s.NewLane(func() {})
	}
	expect := func(want int, when string) {
		t.Helper()
		if got := s.Pending(); got != want {
			t.Errorf("Pending %s = %d, want %d", when, got, want)
		}
	}
	expect(0, "with five registered, none armed")
	for i, l := range lanes[:3] {
		l.ArmAt(Time(i+1) * Microsecond)
	}
	expect(3, "with three armed")
	lanes[1].ArmAt(5 * Microsecond) // moving an armed lane adds nothing
	expect(3, "after re-arming an armed lane")
	lanes[0].Disarm()
	lanes[4].Disarm() // never armed: a no-op
	expect(2, "after one disarm")
	s.Step() // fires lane 2 at 3us
	expect(1, "after one firing")
	s.At(6*Microsecond, func() {})
	expect(2, "with one lane and one heap event")
	for s.Step() {
	}
	expect(0, "after draining")
}
