package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
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
// Worker panics do not kill the campaign outright: a panicking trial is
// retried from its last checkpoint — the trial boundary, since trials
// are self-contained — up to trialAttempts times with linear backoff. A
// trial that panics on every attempt re-panics with context, and any
// trials already recorded in env.Journal survive for the next -resume.
func RunParallel[T any](env *Env, n int, fn func(trial int) T) []T {
	run := func(trial int) T { return runTrial(env, fn, trial) }
	if j := env.Journal; j != nil {
		call := j.nextCall()
		run = func(trial int) T {
			if v, ok := journalLookup[T](j, call, trial); ok {
				return v
			}
			v := runTrial(env, fn, trial)
			journalRecord(j, call, trial, v)
			return v
		}
	}
	if p := env.Self; p != nil {
		p.TrialsTotal.Add(uint64(n))
		inner := run
		run = func(trial int) T {
			v := inner(trial)
			p.TrialsDone.Inc()
			return v
		}
	}
	out := make([]T, n)
	workers := env.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i] = run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = run(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// trialAttempts bounds how many times a panicking trial is retried;
// trialBackoff is the linear backoff base between attempts.
const (
	trialAttempts = 3
	trialBackoff  = 5 * time.Millisecond
)

// runTrial executes one trial with panic recovery and bounded retry.
func runTrial[T any](env *Env, fn func(trial int) T, trial int) T {
	backoff := trialBackoff
	if env.backoff > 0 {
		backoff = env.backoff
	}
	var lastPanic any
	for attempt := 1; attempt <= trialAttempts; attempt++ {
		v, panicked := tryTrial(fn, trial)
		if panicked == nil {
			return v
		}
		lastPanic = panicked
		if attempt < trialAttempts {
			time.Sleep(time.Duration(attempt) * backoff)
		}
	}
	panic(fmt.Sprintf("bench: trial %d panicked on all %d attempts, last: %v", trial, trialAttempts, lastPanic))
}

func tryTrial[T any](fn func(trial int) T, trial int) (v T, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	v = fn(trial)
	return v, nil
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
