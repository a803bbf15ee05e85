package sim

import (
	"fmt"
	"testing"
)

// TestLaneDisarmThenArmSameCycle covers Disarm immediately followed by
// ArmAt from inside an event callback at the same instant: the re-arm
// must take a fresh sequence number, so the lane orders after work
// scheduled between the disarm and the re-arm.
func TestLaneDisarmThenArmSameCycle(t *testing.T) {
	s := NewScheduler()
	var order []string
	l := s.NewLane(func() { order = append(order, "lane") })
	l.ArmAt(Microsecond)
	s.At(Microsecond, func() { order = append(order, "first") })
	s.At(0, func() {
		// Same cycle: cancel the pending firing, schedule a heap event,
		// re-arm for the same instant as before.
		l.Disarm()
		if l.Armed() {
			t.Error("lane still armed after Disarm")
		}
		s.At(Microsecond, func() { order = append(order, "second") })
		l.ArmAt(Microsecond)
	})
	for s.Step() {
	}
	want := "[first second lane]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v (re-arm must draw a fresh seq)", got, want)
	}
}

// TestLaneRearmAtCurrentTimeFromCallback covers a lane callback
// re-arming its own lane at the *current* instant: the lane must fire
// again in the same cycle, after heap events the callback scheduled
// first (the re-arm's seq is newer), and the scheduler must not lose or
// duplicate the firing.
func TestLaneRearmAtCurrentTimeFromCallback(t *testing.T) {
	s := NewScheduler()
	var order []string
	fires := 0
	var l *Lane
	l = s.NewLane(func() {
		fires++
		order = append(order, fmt.Sprintf("lane%d", fires))
		if fires == 1 {
			s.At(s.Now(), func() { order = append(order, "heap") })
			l.ArmAt(s.Now()) // re-arm at the current instant
		}
	})
	l.ArmAt(Microsecond)
	for s.Step() {
	}
	want := "[lane1 heap lane2]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
	if now := s.Now(); now != Microsecond {
		t.Errorf("clock = %v, want 1us (same-instant re-arm must not advance time)", now)
	}
}

// TestLaneHeapInterleaveEqualTimestamps pins the full interleave at one
// instant: heap events and lane arms strictly by shared seq order, with
// a second lane competing. This is the ordering the switch pipeline
// relies on when a cycle lane, txDone events, and pipeline jobs all land
// on the same picosecond.
func TestLaneHeapInterleaveEqualTimestamps(t *testing.T) {
	s := NewScheduler()
	var order []string
	la := s.NewLane(func() { order = append(order, "laneA") })
	lb := s.NewLane(func() { order = append(order, "laneB") })
	s.At(Microsecond, func() { order = append(order, "heap1") }) // seq 0
	la.ArmAt(Microsecond)                                        // seq 1
	s.At(Microsecond, func() { order = append(order, "heap2") }) // seq 2
	lb.ArmAt(Microsecond)                                        // seq 3
	s.At(Microsecond, func() { order = append(order, "heap3") }) // seq 4
	for s.Step() {
	}
	want := "[heap1 laneA heap2 laneB heap3]"
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}
