package bench

import (
	"sync/atomic"
	"testing"
)

// TestParallelOrdering verifies RunParallel returns results indexed by
// trial regardless of which worker evaluated them.
func TestParallelOrdering(t *testing.T) {
	out := RunParallel(&Env{Parallelism: 8}, 100, func(trial int) int { return trial * trial })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestParallelRunsAllTrials verifies every trial runs exactly once even
// when trials greatly outnumber workers, and that worker counts above
// the trial count are clamped.
func TestParallelRunsAllTrials(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		var calls atomic.Int64
		seen := make([]atomic.Int32, 37)
		RunParallel(&Env{Parallelism: workers}, 37, func(trial int) struct{} {
			calls.Add(1)
			seen[trial].Add(1)
			return struct{}{}
		})
		if got := calls.Load(); got != 37 {
			t.Errorf("workers=%d: %d calls, want 37", workers, got)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Errorf("workers=%d: trial %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestParallelDeterminism is the tentpole's acceptance check: a
// parallel-converted experiment must render byte-identical output at
// parallelism 1 (fully serial) and 8. Each trial builds its own
// scheduler and RNGs, and RunParallel slots results by trial index, so
// worker interleaving must be invisible in the table.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"table2", "fig3", "resilience"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		serial := e.Run(&Env{Parallelism: 1}).String()
		parallel := e.Run(&Env{Parallelism: 8}).String()
		// Both settings at once: trials spread across 8 workers AND each
		// trial's topology split across 2 partition domains.
		both := e.Run(&Env{Parallelism: 8, Domains: 2}).String()
		if serial != parallel {
			t.Errorf("%s: -parallel 1 and -parallel 8 output differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
		if serial != both {
			t.Errorf("%s: -parallel 8 -domains 2 diverges from serial:\n--- serial ---\n%s\n--- both ---\n%s",
				id, serial, both)
		}
	}
}

// TestTrialSeed verifies per-trial seeds are deterministic and
// decorrelated (distinct across neighbouring trials and bases).
func TestTrialSeed(t *testing.T) {
	if TrialSeed(42, 7) != TrialSeed(42, 7) {
		t.Error("TrialSeed is not deterministic")
	}
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for trial := 0; trial < 64; trial++ {
			s := TrialSeed(base, trial)
			if seen[s] {
				t.Fatalf("seed collision at base=%d trial=%d", base, trial)
			}
			seen[s] = true
		}
	}
}
