package sim

import "testing"

// TestHandleWhen pins the checkpoint coordinate accessor: pending events
// expose (at, seq), fired and cancelled ones do not.
func TestHandleWhen(t *testing.T) {
	s := NewScheduler()
	h := s.At(3*Microsecond, func() {})
	at, seq, ok := h.When()
	if !ok || at != 3*Microsecond || seq != 0 {
		t.Fatalf("When() = (%v, %d, %v), want (3us, 0, true)", at, seq, ok)
	}
	h2 := s.At(4*Microsecond, func() {})
	h2.Cancel()
	if _, _, ok := h2.When(); ok {
		t.Error("cancelled handle still reports pending coordinates")
	}
	s.Run(5 * Microsecond)
	if _, _, ok := h.When(); ok {
		t.Error("fired handle still reports pending coordinates")
	}
}

// TestRestoreAtOrdering verifies events re-created out of order via
// RestoreAt fire in (at, seq) order with the original coordinates, and
// that RestoreClock pins the counters so new events order after them.
func TestRestoreAtOrdering(t *testing.T) {
	// Original run: three events drawn from the counter.
	src := NewScheduler()
	var coords [][2]uint64
	for i := 0; i < 3; i++ {
		h := src.At(Time(3-i)*Microsecond, func() {}) // at 3us,2us,1us -> seqs 0,1,2
		at, seq, _ := h.When()
		coords = append(coords, [2]uint64{uint64(at), seq})
	}

	// Restored run: re-create them shuffled, then pin the clock.
	dst := NewScheduler()
	var order []uint64
	for _, i := range []int{1, 0, 2} {
		seq := coords[i][1]
		dst.RestoreAt(Time(coords[i][0]), seq, func() { order = append(order, seq) })
	}
	dst.RestoreClock(src.Clock())
	dst.At(4*Microsecond, func() { order = append(order, 99) })
	dst.Run(5 * Microsecond)
	want := []uint64{2, 1, 0, 99} // 1us(seq2), 2us(seq1), 3us(seq0), then the new event
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
}

// TestDropFired verifies the restore-side cut: every pending event
// strictly ordered before the checkpoint event's (at, seq) is discarded,
// everything at or after it survives.
func TestDropFired(t *testing.T) {
	s := NewScheduler()
	var fired []int
	for i := 1; i <= 5; i++ {
		i := i
		s.At(Time(i)*Microsecond, func() { fired = append(fired, i) })
	}
	// Cut at the coordinates of the 3us event (seq 2): 1us and 2us were
	// "already executed" by the checkpointed run.
	if n := s.DropFired(3*Microsecond, 2); n != 2 {
		t.Fatalf("DropFired removed %d events, want 2", n)
	}
	s.Run(10 * Microsecond)
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 4 || fired[2] != 5 {
		t.Fatalf("fired %v, want [3 4 5]", fired)
	}
}

// TestDropFiredSameInstant verifies the seq tie-break: at the checkpoint
// instant, only events with a smaller sequence number are dropped.
func TestDropFiredSameInstant(t *testing.T) {
	s := NewScheduler()
	var fired []uint64
	for i := 0; i < 4; i++ {
		h := s.At(Microsecond, nil)
		_, seq, _ := h.When()
		h.ev.fn = func() { fired = append(fired, seq) }
	}
	if n := s.DropFired(Microsecond, 2); n != 2 {
		t.Fatalf("DropFired removed %d events, want 2", n)
	}
	s.Run(2 * Microsecond)
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired seqs %v, want [2 3]", fired)
	}
}

// TestTickerRestoreState verifies a restored ticker continues the
// original cadence: same firing times, same count.
func TestTickerRestoreState(t *testing.T) {
	fireTimes := func(pause bool) []Time {
		s := NewScheduler()
		var times []Time
		tk := s.Every(3*Microsecond, func() { times = append(times, s.Now()) })
		if !pause {
			s.Run(20 * Microsecond)
			return times
		}
		s.Run(10 * Microsecond)
		st := tk.State()
		clk := s.Clock()

		// Rebuild: same construction path (Every draws the same seq),
		// then restore ticker and clock.
		s2 := NewScheduler()
		times2 := append([]Time(nil), times...)
		tk2 := s2.Every(3*Microsecond, func() { times2 = append(times2, s2.Now()) })
		tk2.RestoreState(st)
		s2.RestoreClock(clk)
		s2.Run(20 * Microsecond)
		return times2
	}
	want := fireTimes(false)
	got := fireTimes(true)
	if len(want) != len(got) {
		t.Fatalf("restored ticker fired %d times, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("firing %d at %v, uninterrupted at %v", i, got[i], want[i])
		}
	}
}

// TestRNGStateRoundTrip verifies State/SetState resumes the stream
// mid-position.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	st := r.State()
	var want [5]uint64
	for i := range want {
		want[i] = r.Uint64()
	}
	r2 := NewRNG(7)
	r2.SetState(st)
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("draw %d after SetState = %d, want %d", i, got, want[i])
		}
	}
}
