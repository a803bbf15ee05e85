package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RunParallel evaluates fn(0..n-1) on env's worker pool and returns the
// results indexed by trial, so output ordering is deterministic and
// independent of the worker count and interleaving.
//
// Each trial must be self-contained: build its own sim.Scheduler, its
// own switches, and seed its own RNGs from constants or from the trial
// index — never from shared mutable state. A Scheduler is a single
// logical thread (not concurrency-safe), but distinct sweep points of an
// experiment are independent simulations, which is exactly the
// parallelism this helper exploits. Under this contract the rendered
// experiment tables are byte-identical at every parallelism level.
//
// Under the same contract a panicking trial would panic again, so it is
// not retried. The worker recovers it, no further trial starts, and
// RunParallel re-panics on the calling goroutine with a *TrialPanic for
// the lowest-numbered trial that panicked. Trials start in index order,
// so that is the same trial at every parallelism level.
func RunParallel[T any](env *Env, n int, fn func(trial int) T) []T {
	out := make([]T, n)
	p := env.Self
	if p != nil {
		p.TrialsTotal.Add(uint64(n))
	}
	var mu sync.Mutex
	var failed *TrialPanic
	run := func(trial int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if failed == nil || trial < failed.Trial {
					failed = &TrialPanic{Trial: trial, Value: r}
				}
				mu.Unlock()
			}
		}()
		out[trial] = fn(trial)
		if p != nil {
			p.TrialsDone.Inc()
		}
		return true
	}
	workers := min(env.workers(), n)
	if workers <= 1 {
		for i := 0; i < n && run(i); i++ {
		}
	} else {
		var next atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for !stop.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if !run(i) {
						stop.Store(true)
					}
				}
			}()
		}
		wg.Wait()
	}
	if failed != nil {
		panic(failed)
	}
	return out
}

// TrialPanic is what RunParallel panics with when a trial panics: the
// trial's index and the value it panicked with.
type TrialPanic struct {
	Trial int
	Value any
}

func (p *TrialPanic) Error() string {
	return fmt.Sprintf("trial %d panicked: %v", p.Trial, p.Value)
}

// TrialSeed derives a per-trial RNG seed from an experiment's base seed
// and the trial index using a splitmix64 step, so trials get
// decorrelated deterministic streams no matter which worker runs them.
func TrialSeed(base uint64, trial int) uint64 {
	x := base + uint64(trial)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
