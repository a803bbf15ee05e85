package self

import (
	"sync"
	"testing"
)

// TestSelfHotPathZeroAlloc pins the self-metrics hot path at zero
// allocations, the same contract TestHotPathZeroAlloc pins for the
// deterministic registry: enabling the observability plane must never
// put an allocation on a per-event engine path.
func TestSelfHotPathZeroAlloc(t *testing.T) {
	p := new(Plane)
	w := p.DomainWindows(1)
	st := p.DomainStallNS(1)
	allocs := testing.AllocsPerRun(1000, func() {
		p.SchedDispatch.Add(17)
		p.SchedLaneArms.Inc()
		p.SchedAuxArms.Inc()
		p.PoolInUse.Add(1)
		p.PoolInUse.Add(-1)
		p.CheckpointWriteNS.Observe(123456)
		w.Inc()
		st.Add(250)
		p.SimNowPS.Set(99)
	})
	if allocs != 0 {
		t.Errorf("self-metrics hot path allocates %v allocs/op, want 0", allocs)
	}
}

func TestHighWater(t *testing.T) {
	var w HighWater
	w.Add(3)
	w.Add(2)
	w.Add(-4)
	if got := w.Cur(); got != 1 {
		t.Errorf("Cur = %d, want 1", got)
	}
	if got := w.High(); got != 5 {
		t.Errorf("High = %d, want 5", got)
	}
	w.Add(10)
	if got := w.High(); got != 11 {
		t.Errorf("High after refill = %d, want 11", got)
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 1010 {
		t.Errorf("Sum = %d, want 1010", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d, want 1000", h.Max())
	}
	// 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3;
	// 1000 -> bucket 10 (512..1023).
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
	for i := 0; i < HistBuckets; i++ {
		if h.Bucket(i) != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, h.Bucket(i), want[i])
		}
	}
	if lo, hi := BucketLow(10), BucketHigh(10); lo != 512 || hi != 1023 {
		t.Errorf("bucket 10 bounds [%d,%d], want [512,1023]", lo, hi)
	}
}

// TestConcurrentSnapshot hammers every instrument from several goroutines
// while snapshots are taken concurrently — the race detector's view of
// the wall-clock plane's core guarantee. It also checks the snapshot's
// internal invariant: histogram counts always equal the bucket sum, even
// mid-update.
func TestConcurrentSnapshot(t *testing.T) {
	p := new(Plane)
	p.SetDomains(2)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				p.SchedDispatch.Add(1)
				p.CheckpointWriteNS.Observe(uint64(i % 70))
				p.PoolInUse.Add(1)
				p.PoolInUse.Add(-1)
				p.DomainWindows(g % 2).Inc()
				p.DomainStallNS(g % 2).Add(10)
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range p.Snapshot() {
				if s.Kind != "histogram" {
					continue
				}
				var total uint64
				for _, b := range s.Buckets {
					total += b.Count
				}
				if total != s.Count {
					t.Errorf("snapshot %s: bucket sum %d != count %d", s.Name, total, s.Count)
				}
			}
		}
	}()
	// Writers finish first so reads genuinely overlap writes; only then
	// is the snapshot goroutine told to stop.
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := p.SchedDispatch.Value(); got != 4*5000 {
		t.Errorf("SchedDispatch = %d, want %d", got, 4*5000)
	}
	if got := p.DomainWindows(0).Value() + p.DomainWindows(1).Value(); got != 4*5000 {
		t.Errorf("domain windows total = %d, want %d", got, 4*5000)
	}
}

func TestDomainOverflowSlot(t *testing.T) {
	p := new(Plane)
	p.DomainWindows(MaxDomains + 7).Inc()
	p.DomainWindows(-1).Inc()
	if got := p.DomainWindows(MaxDomains).Value(); got != 2 {
		t.Errorf("overflow slot = %d, want 2", got)
	}
	found := false
	for _, s := range p.Snapshot() {
		if s.Name == "self.domain_overflow.windows" {
			found = true
			if s.Value != 2 {
				t.Errorf("overflow sample = %d, want 2", s.Value)
			}
		}
	}
	if !found {
		t.Error("overflow slot missing from snapshot")
	}
}

// TestSnapshotDeterministicOrder: two snapshots of quiescent instruments
// list the same names in the same order — scrape output must be diffable.
func TestSnapshotDeterministicOrder(t *testing.T) {
	p := new(Plane)
	p.SetDomains(3)
	a, b := p.Snapshot(), p.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("entry %d: %q vs %q", i, a[i].Name, b[i].Name)
		}
		if i > 0 && a[i].Name <= a[i-1].Name {
			t.Errorf("snapshot not strictly sorted at %q after %q", a[i].Name, a[i-1].Name)
		}
	}
}
