package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500, "500ps"},
		{Nanosecond, "1ns"},
		{1500 * Picosecond, "1.5ns"},
		{Microsecond, "1us"},
		{250 * Nanosecond, "250ns"},
		{Millisecond, "1ms"},
		{Second, "1s"},
		{-Nanosecond, "-1ns"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRateBitTime(t *testing.T) {
	if got := (10 * Gbps).BitTime(); got != 100*Picosecond {
		t.Errorf("10G bit time = %v, want 100ps", got)
	}
	if got := (100 * Gbps).BitTime(); got != 10*Picosecond {
		t.Errorf("100G bit time = %v, want 10ps", got)
	}
	if got := (10 * Gbps).ByteTime(64); got != 51200*Picosecond {
		t.Errorf("64B at 10G = %v, want 51.2ns", got)
	}
}

func TestRateBitTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive rate")
		}
	}()
	Rate(0).BitTime()
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // same instant: FIFO
	for s.Step() {
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerRunHorizon(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	n := s.Run(25)
	if n != 2 || fired != 2 {
		t.Errorf("Run(25) executed %d (fired=%d), want 2", n, fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now = %v, want 25 (clock advances to horizon)", s.Now())
	}
	s.Run(100)
	if fired != 3 {
		t.Errorf("after Run(100) fired=%d, want 3", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	for s.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerReentrant(t *testing.T) {
	s := NewScheduler()
	var times []Time
	s.At(10, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
	})
	for s.Step() {
	}
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v, want [10 15]", times)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := s.Every(10, func() {
		ticks = append(ticks, s.Now())
	})
	s.Run(35)
	tk.Stop()
	s.Run(100)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks %v, want 3", len(ticks), ticks)
	}
	for i, at := range []Time{10, 20, 30} {
		if ticks[i] != at {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], at)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = s.Every(10, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.Run(1000)
	if n != 2 {
		t.Errorf("ticker fired %d times after self-stop, want 2", n)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d has %d, want ~%d", i, c, n/10)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Errorf("Exp mean = %v, want ~50", mean)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams matched %d/1000 draws", same)
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty stats should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 || s.Sum() != 15 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Errorf("stats wrong: n=%d sum=%v mean=%v min=%v max=%v",
			s.N(), s.Sum(), s.Mean(), s.Min(), s.Max())
	}
	if p := s.Percentile(50); p != 3 {
		t.Errorf("p50 = %v, want 3", p)
	}
	if p := s.Percentile(100); p != 5 {
		t.Errorf("p100 = %v, want 5", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 = %v, want 1", p)
	}
}

func TestStatsPercentileMonotone(t *testing.T) {
	r := NewRNG(11)
	s := NewStats()
	for i := 0; i < 1000; i++ {
		s.Add(r.Float64() * 100)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestStatsAddAfterPercentile(t *testing.T) {
	s := NewStats()
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(1) // must re-sort lazily
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 after re-add = %v, want 1", p)
	}
}

// TestFIFO holds the shared queue to its contract under every backlog
// shape the datapath produces — drain to empty, standing backlog, deep
// backlog: FIFO order, Peek/Live agreeing with the next Pop, no pointer
// left behind in a popped slot, and a backing array bounded by the peak
// occupancy, not by the number of elements that ever passed through.
func TestFIFO(t *testing.T) {
	for _, backlog := range []int{0, 3, 100, 1000} {
		var f FIFO[*int]
		next, want := 0, 0
		push := func() { v := next; next++; f.Push(&v) }
		for i := 0; i < backlog; i++ {
			push()
		}
		for i := 0; i < 50_000; i++ {
			push()
			if f.Len() != backlog+1 {
				t.Fatalf("backlog %d: Len = %d after push %d", backlog, f.Len(), i)
			}
			if got := **f.Peek(); got != want {
				t.Fatalf("backlog %d: Peek = %d, want %d", backlog, got, want)
			}
			if live := f.Live(); len(live) != f.Len() || *live[0] != want || *live[len(live)-1] != next-1 {
				t.Fatalf("backlog %d: Live = [%d..%d] (%d), want [%d..%d]", backlog, *live[0], *live[len(live)-1], len(live), want, next-1)
			}
			if got := *f.Pop(); got != want {
				t.Fatalf("backlog %d: Pop = %d, want %d", backlog, got, want)
			}
			want++
		}
		if c := cap(f.q); c > 4*(backlog+fifoCompactAt) {
			t.Errorf("backlog %d: backing array grew to %d slots", backlog, c)
		}
		for i, p := range f.q[:cap(f.q)] {
			if live := i >= f.head && i < len(f.q); !live && p != nil {
				t.Fatalf("backlog %d: dead slot %d still holds a pointer", backlog, i)
			}
		}
		f.Reset()
		if f.Len() != 0 || len(f.Live()) != 0 {
			t.Errorf("backlog %d: Reset left %d elements", backlog, f.Len())
		}
	}
}
