package sketch

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCMSNeverUndercounts(t *testing.T) {
	f := func(keys []uint16) bool {
		c := NewCMS(3, 64)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			c.Update(uint64(k), 1)
			truth[uint64(k)]++
		}
		for k, want := range truth {
			if c.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCMSAccurateWhenSparse(t *testing.T) {
	c := NewCMS(4, 1024)
	for k := uint64(0); k < 50; k++ {
		for i := uint64(0); i <= k; i++ {
			c.Update(k, 1)
		}
	}
	for k := uint64(0); k < 50; k++ {
		if got := c.Estimate(k); got != k+1 {
			t.Errorf("key %d estimate = %d, want %d (sparse: should be exact)", k, got, k+1)
		}
	}
}

func TestCMSResetAndCost(t *testing.T) {
	c := NewCMS(3, 32)
	c.Update(7, 5)
	if c.Updates != 1 {
		t.Errorf("updates = %d", c.Updates)
	}
	c.Reset()
	if c.Estimate(7) != 0 || c.Updates != 0 {
		t.Error("reset incomplete")
	}
	if c.ResetCost() != 3 {
		t.Errorf("reset cost = %d, want rows", c.ResetCost())
	}
	if c.MemoryBytes() != 3*32*4 {
		t.Errorf("memory = %d", c.MemoryBytes())
	}
}

func TestWindowRateSliding(t *testing.T) {
	w := NewWindowRate(4)
	// Intervals: 100, 200, 300, 400 — window keeps all 4 buckets.
	for _, v := range []uint64{100, 200, 300} {
		w.Add(v)
		w.Shift()
	}
	w.Add(400)
	if got := w.Sum(); got != 1000 {
		t.Errorf("sum = %d, want 1000", got)
	}
	// One more shift evicts the 100 bucket on the next wrap.
	w.Shift()
	w.Add(500)
	if got := w.Sum(); got != 1400 { // 200+300+400+500
		t.Errorf("sum after slide = %d, want 1400", got)
	}
	if w.Filled() != 3 {
		t.Errorf("filled = %d", w.Filled())
	}
}

func TestWindowRateMeasuresKnownRate(t *testing.T) {
	// Feed a precise 1 MB/s for 10 intervals of 1 ms: window of 8
	// should read 8000 bytes.
	sched := sim.NewScheduler()
	w := NewWindowRate(8)
	sched.Every(sim.Millisecond, func() { w.Shift() })
	feed := sched.Every(100*sim.Microsecond, func() { w.Add(100) }) // 1 MB/s
	sched.Run(20 * sim.Millisecond)
	feed.Stop()
	sum := w.Sum()
	if sum < 7000 || sum > 9000 {
		t.Errorf("window sum = %d, want ~8000 (1MB/s over 8ms)", sum)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(3)
	if e.Observe(1000) != 1000 {
		t.Error("first sample should initialize")
	}
	var v uint64
	for i := 0; i < 100; i++ {
		v = e.Observe(2000)
	}
	if v < 1950 || v > 2000 {
		t.Errorf("ewma = %d, want converged near 2000", v)
	}
	// Downward too (signed arithmetic).
	for i := 0; i < 100; i++ {
		v = e.Observe(100)
	}
	if v > 150 {
		t.Errorf("ewma = %d, want converged near 100", v)
	}
	if e.Value() != v {
		t.Error("Value mismatch")
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewCMS(0, 10) },
		func() { NewWindowRate(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
