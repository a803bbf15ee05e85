package sim

import "math"

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. At equal timestamps the wire band fires first; ordinary
// events and lanes then interleave by shared sequence number. It returns
// false when no events remain.
func (s *Scheduler) Step() bool { return s.stepBounded(Forever, false) }

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn Action) { s.AfterRunner(d, fn) }

// Live returns the queued elements, oldest first, aliasing the queue.
func (f *FIFO[T]) Live() []T { return f.q[f.head:] }

// Reset empties the queue, keeping its backing array.
func (f *FIFO[T]) Reset() {
	clear(f.q[f.head:])
	f.q, f.head = f.q[:0], 0
}

// Reset discards every sample.
func (s *Stats) Reset() {
	s.samples = s.samples[:0]
	s.sorted = s.sorted[:0]
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Samples returns the recorded samples in insertion order.
func (s *Stats) Samples() []float64 { return s.samples }

// Sum returns the sum of the samples.
func (s *Stats) Sum() float64 { return s.sum }

// Min returns the smallest sample (0 with no samples).
func (s *Stats) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.min
}
