// Package sketch implements the approximate data-plane data structures
// the paper's applications rely on: the count-min sketch (which baseline
// architectures must ask the control plane to reset, and an event-driven
// architecture resets from a timer event — paper §1), a shift-register
// sliding-window rate estimator (paper §5, "Time-Windowed Network
// Measurement"), and an EWMA smoother.
package sketch

import "repro/internal/pisa"

// CMS is a count-min sketch: Rows independent hash rows of Width
// counters. Estimates overcount but never undercount.
type CMS struct {
	rows  int
	width int
	cnt   [][]uint64
	seeds []uint64
	// Updates counts Update calls since the last reset.
	Updates uint64
}

// NewCMS builds a sketch with the given geometry.
func NewCMS(rows, width int) *CMS {
	if rows <= 0 || width <= 0 {
		panic("sketch: CMS needs positive geometry")
	}
	c := &CMS{rows: rows, width: width}
	c.cnt = make([][]uint64, rows)
	c.seeds = make([]uint64, rows)
	for i := range c.cnt {
		c.cnt[i] = make([]uint64, width)
		c.seeds[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return c
}

// Update adds delta to the key's counters.
func (c *CMS) Update(key uint64, delta uint64) {
	c.Updates++
	for i := 0; i < c.rows; i++ {
		h := pisa.Hash(c.seeds[i], key) % uint64(c.width)
		c.cnt[i][h] += delta
	}
}

// Estimate returns the key's count estimate (minimum across rows).
func (c *CMS) Estimate(key uint64) uint64 {
	var est uint64 = ^uint64(0)
	for i := 0; i < c.rows; i++ {
		h := pisa.Hash(c.seeds[i], key) % uint64(c.width)
		if c.cnt[i][h] < est {
			est = c.cnt[i][h]
		}
	}
	return est
}

// Reset zeroes every counter. ResetCost reports how many register-array
// writes a reset costs (what the control plane must issue row by row on a
// baseline architecture).
func (c *CMS) Reset() {
	for i := range c.cnt {
		row := c.cnt[i]
		for j := range row {
			row[j] = 0
		}
	}
	c.Updates = 0
}

// ResetCost is the number of per-row register resets a full reset takes:
// one control-plane write per row on baseline targets.
func (c *CMS) ResetCost() int { return c.rows }

// MemoryBytes reports the sketch's counter memory footprint assuming the
// 32-bit counters a data-plane register array would use.
func (c *CMS) MemoryBytes() int { return c.rows * c.width * 4 }

// WindowRate measures a byte rate over a sliding window using a shift
// register of per-interval buckets — the structure one student group
// built on timer events (paper §5): each timer expiration shifts the
// register; arrivals accumulate into the head bucket.
type WindowRate struct {
	buckets []uint64
	head    int
	filled  int
}

// NewWindowRate builds a window of n buckets.
func NewWindowRate(n int) *WindowRate {
	if n <= 0 {
		panic("sketch: window needs at least one bucket")
	}
	return &WindowRate{buckets: make([]uint64, n)}
}

// Add accumulates bytes into the current interval.
func (w *WindowRate) Add(n uint64) { w.buckets[w.head] += n }

// Shift closes the current interval and opens a fresh one (called from a
// timer-event handler).
func (w *WindowRate) Shift() {
	w.head = (w.head + 1) % len(w.buckets)
	w.buckets[w.head] = 0
	if w.filled < len(w.buckets)-1 {
		w.filled++
	}
}

// Sum returns the total bytes across the whole window.
func (w *WindowRate) Sum() uint64 {
	var s uint64
	for _, b := range w.buckets {
		s += b
	}
	return s
}

// Filled returns how many complete intervals the window holds (grows to
// len-1 and stays there).
func (w *WindowRate) Filled() int { return w.filled }

// EWMA is an exponentially weighted moving average with integer
// arithmetic: weight is expressed as a right-shift (newWeight = 1/2^shift),
// matching what a data-plane register update can compute.
type EWMA struct {
	shift uint
	value uint64
	set   bool
}

// NewEWMA builds a smoother; shift=3 weights new samples by 1/8.
func NewEWMA(shift uint) *EWMA { return &EWMA{shift: shift} }

// Observe folds in a sample and returns the new average.
func (e *EWMA) Observe(v uint64) uint64 {
	if !e.set {
		e.value = v
		e.set = true
		return v
	}
	// value += (v - value) >> shift, in signed arithmetic.
	d := int64(v) - int64(e.value)
	e.value = uint64(int64(e.value) + (d >> e.shift))
	return e.value
}

// Value returns the current average.
func (e *EWMA) Value() uint64 { return e.value }
