package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduler measures the steady-state schedule+fire round trip
// through the event heap with its backing array warm: the cost the switch
// paid per cycle before the Lane fast path existed.
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(Nanosecond, fn)
	}
	for s.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Nanosecond, fn)
		s.Step()
	}
}

// BenchmarkSchedulerLane measures the lane fast path: re-arm plus fire,
// no heap traffic.
func BenchmarkSchedulerLane(b *testing.B) {
	s := NewScheduler()
	var l *Lane
	l = s.NewLane(func() { l.ArmAt(s.Now() + Nanosecond) })
	l.ArmAt(Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedulerLanes measures ns per lane firing with L lanes armed
// at once, each re-arming itself one full round ahead — a fabric of L/2
// switches with every pipeline busy, and the heap's worst case: every
// re-arm sifts from the root to a leaf. Peeking is O(1) and a firing is
// that one sift, so ns/op grows with log L (about 5x from 1 lane to the
// k=8 fat tree's 160); under the linear scan the heap replaced it grew
// with L (18x).
func BenchmarkSchedulerLanes(b *testing.B) {
	for _, n := range []int{2, 16, 160} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := NewScheduler()
			round := Time(n) * Nanosecond
			for i := 0; i < n; i++ {
				var l *Lane
				l = s.NewLane(func() { l.ArmAt(s.Now() + round) })
				l.ArmAt(Time(i+1) * Nanosecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// TestSchedulerSteadyStateZeroAlloc pins the scheduler's hot paths at
// zero allocations per event once the heap's backing array is warm: the
// heap path (After/Step), whose entries are values, and the lane path.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(Nanosecond, fn)
	}
	for s.Step() {
	}

	if avg := testing.AllocsPerRun(1000, func() {
		s.After(Nanosecond, fn)
		s.Step()
	}); avg != 0 {
		t.Errorf("heap path: %v allocs per schedule+fire, want 0", avg)
	}

	var l *Lane
	l = s.NewLane(func() { l.ArmAt(s.Now() + Nanosecond) })
	l.ArmAt(s.Now() + Nanosecond)
	if avg := testing.AllocsPerRun(1000, func() {
		s.Step()
	}); avg != 0 {
		t.Errorf("lane path: %v allocs per fire, want 0", avg)
	}
}

// TestLaneOrderingMatchesAt verifies the documented contract: a lane
// firing orders against heap events exactly as the equivalent At call
// would, because arming draws from the same sequence counter.
func TestLaneOrderingMatchesAt(t *testing.T) {
	var order []string

	// Heap event scheduled first, lane armed second: heap fires first.
	s := NewScheduler()
	l := s.NewLane(func() { order = append(order, "lane") })
	s.At(Microsecond, func() { order = append(order, "at") })
	l.ArmAt(Microsecond)
	for s.Step() {
	}
	if len(order) != 2 || order[0] != "at" || order[1] != "lane" {
		t.Errorf("at-then-arm order = %v, want [at lane]", order)
	}

	// Lane armed first, heap event scheduled second: lane fires first.
	order = nil
	s = NewScheduler()
	l = s.NewLane(func() { order = append(order, "lane") })
	l.ArmAt(Microsecond)
	s.At(Microsecond, func() { order = append(order, "at") })
	for s.Step() {
	}
	if len(order) != 2 || order[0] != "lane" || order[1] != "at" {
		t.Errorf("arm-then-at order = %v, want [lane at]", order)
	}
}

// TestLaneDisarmRearm exercises the lane's state transitions.
func TestLaneDisarmRearm(t *testing.T) {
	s := NewScheduler()
	fired := 0
	l := s.NewLane(func() { fired++ })
	if l.Armed() {
		t.Error("new lane reports armed")
	}
	l.ArmAt(Microsecond)
	if !l.Armed() {
		t.Error("armed lane reports disarmed")
	}
	l.Disarm()
	for s.Step() {
	}
	if fired != 0 {
		t.Error("disarmed lane fired")
	}

	l.ArmAt(2 * Microsecond)
	l.ArmAt(3 * Microsecond) // re-arm moves the firing time
	for s.Step() {
	}
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	if got := s.Now(); got != 3*Microsecond {
		t.Errorf("fired at %v, want 3us (re-arm should move the time)", got)
	}
	if l.Armed() {
		t.Error("lane still armed after firing")
	}
}

// TestLanePastPanics mirrors TestSchedulerPastPanics for the lane path.
func TestLanePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Microsecond, func() {})
	for s.Step() {
	}
	l := s.NewLane(func() {})
	defer func() {
		if recover() == nil {
			t.Error("arming a lane in the past did not panic")
		}
	}()
	l.ArmAt(Nanosecond)
}

// TestPendingCountsLanes verifies Pending sees armed lanes.
func TestPendingCountsLanes(t *testing.T) {
	s := NewScheduler()
	l := s.NewLane(func() {})
	s.At(Microsecond, func() {})
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	l.ArmAt(Microsecond)
	if got := s.Pending(); got != 2 {
		t.Errorf("Pending with armed lane = %d, want 2", got)
	}
}

// TestRunnerScheduling covers the AtRunner/AfterRunner pooled-callback
// variants.
type countRunner struct{ n int }

func (r *countRunner) Run() { r.n++ }

func TestRunnerScheduling(t *testing.T) {
	s := NewScheduler()
	r := &countRunner{}
	s.AfterRunner(Microsecond, r)
	s.AtRunner(2*Microsecond, r)
	for s.Step() {
	}
	if r.n != 2 {
		t.Errorf("runner ran %d times, want 2", r.n)
	}
}
