package main

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
)

// TestUsageErrors: a bad flag value exits 2 with one line on stderr
// before any experiment runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "-1", "-exp", "table2"},
		{"-domains", "0", "-exp", "table2"},
		{"-exp", "bogus"},
		{"-trace", "t.jsonl"}, // telemetry needs -exp
	} {
		var errw bytes.Buffer
		code := run(args, io.Discard, &errw)
		if code != exitUsage || strings.Count(errw.String(), "\n") != 1 {
			t.Errorf("run(%v) = %d, want %d with one line; stderr:\n%s", args, code, exitUsage, errw.String())
		}
	}
}

// TestTrialPanicNamesExperimentAndTrial: a panicking trial is not
// retried; the campaign fails with one line naming the experiment and
// the lowest-numbered panicking trial, the same line at any -parallel.
func TestTrialPanicNamesExperimentAndTrial(t *testing.T) {
	for _, par := range []int{1, 8} {
		var calls [16]atomic.Int32
		e := bench.Experiment{ID: "broken", Run: func(env *bench.Env) *bench.Result {
			bench.RunParallel(env, len(calls), func(trial int) int {
				calls[trial].Add(1)
				if trial == 5 || trial == 11 {
					panic("bad state")
				}
				return trial
			})
			return &bench.Result{ID: "broken"}
		}}
		res, err := runExperiment(e, &bench.Env{Parallelism: par})
		const want = "broken: trial 5 panicked: bad state"
		if res != nil || err == nil || err.Error() != want {
			t.Errorf("-parallel %d: result %v, error %q; want no result and %q", par, res, err, want)
		}
		if n := calls[5].Load(); n != 1 {
			t.Errorf("-parallel %d: panicking trial ran %d times, want 1", par, n)
		}
	}
}
