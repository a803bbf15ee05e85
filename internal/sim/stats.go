package sim

import (
	"fmt"
	"math"
	"sort"
)

// Stats accumulates scalar samples and reports summary statistics.
// It keeps all samples, so percentiles are exact; simulations here record
// at most a few million samples per metric. Samples stay in insertion
// order — Percentile sorts a cached copy, so readers iterating Samples
// mid-measurement never observe a reordering.
type Stats struct {
	samples []float64
	sorted  []float64 // cached sorted copy, valid while len == len(samples)
	sum     float64
	min     float64
	max     float64
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample.
func (s *Stats) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// AddTime records a Time sample in picoseconds.
func (s *Stats) AddTime(t Time) { s.Add(float64(t)) }

// N returns the number of samples recorded.
func (s *Stats) N() int { return len(s.samples) }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Stats) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Max returns the largest sample, or 0 when empty.
func (s *Stats) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank, or 0 when empty. It sorts a cached copy of the samples,
// leaving the insertion-order view (Samples) untouched; the copy is
// rebuilt only after new samples arrive.
func (s *Stats) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if len(s.sorted) != n {
		s.sorted = append(s.sorted[:0], s.samples...)
		sort.Float64s(s.sorted)
	}
	if p <= 0 {
		return s.sorted[0]
	}
	if p >= 100 {
		return s.sorted[n-1]
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s.sorted[rank]
}

// String summarizes the distribution for logs and experiment tables.
func (s *Stats) String() string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Max())
}
