package sim

import "testing"

func TestStatsPercentileKeepsInsertionOrder(t *testing.T) {
	s := NewStats()
	in := []float64{5, 1, 4, 2, 3}
	for _, v := range in {
		s.Add(v)
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	for i, v := range s.Samples() {
		if v != in[i] {
			t.Fatalf("Percentile reordered samples: got %v", s.Samples())
		}
	}
	// Adding after a Percentile must invalidate the cached sort.
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Errorf("p0 after Add = %v, want 0", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
}

func TestStatsReset(t *testing.T) {
	a := NewStats()
	for _, v := range []float64{1, 2, 3, 10, 20} {
		a.Add(v)
	}
	if got := a.Percentile(100); got != 20 {
		t.Errorf("p100 = %v, want 20", got)
	}

	a.Reset()
	if a.N() != 0 || a.Sum() != 0 || a.Min() != 0 || a.Max() != 0 || a.Percentile(50) != 0 {
		t.Errorf("Reset left residue: %v", a)
	}
	a.Add(7)
	if a.Mean() != 7 || a.Min() != 7 || a.Max() != 7 || a.Percentile(50) != 7 {
		t.Errorf("post-Reset accumulator broken: %v", a)
	}
}
