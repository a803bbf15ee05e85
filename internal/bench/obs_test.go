package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

// collectObs runs the same instrumented workload — a staleness sweep on 8
// workers plus a 2-domain HULA fabric — and returns the encoded metrics,
// JSONL trace, and digest. With obsOn it layers the whole observability
// plane on top: self-metrics enabled, live collectors, and a streaming
// sink flushing to disk on a fast wall-clock ticker while trials run.
func collectObs(t *testing.T, obsOn bool) ([]byte, []byte, uint64) {
	t.Helper()
	env := &Env{Parallelism: 8, Telemetry: &telOpts}
	var sink *telemetry.StreamSink
	var tracePath string
	if obsOn {
		env.Self = new(self.Plane)
		dir := t.TempDir()
		tracePath = filepath.Join(dir, "live.jsonl")
		var err error
		sink, err = telemetry.NewStreamSink(telemetry.StreamOptions{
			TracePath:   tracePath,
			MetricsPath: filepath.Join(dir, "live-metrics.jsonl"),
			Interval:    time.Millisecond,
			Self:        env.Self,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Sink = sink
	}

	loads := []float64{0.7, 1.0}
	RunParallel(env, len(loads), func(trial int) []string {
		return runStaleness(env, 1.25, loads[trial], 2*sim.Millisecond,
			env.collector(fmt.Sprintf("obs/t%02d", trial)))
	})
	runHULAFabric(env, fabricSpec{
		tors: 2, spines: 2,
		probePeriod: 200 * sim.Microsecond,
		horizon:     2 * sim.Millisecond,
		flows:       4,
		flowRate:    660 * sim.Mbps,
		domains:     2,
		tel:         env.collector("obs/fabric"),
	})

	if sink != nil {
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) == 0 {
			t.Error("streaming sink flushed nothing during the run")
		}
	}

	runs := env.TelemetryRuns()
	m, err := telemetry.EncodeMetrics(runs)
	if err != nil {
		t.Fatal(err)
	}
	j, err := telemetry.EncodeJSONL(runs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := telemetry.Digest(runs)
	if err != nil {
		t.Fatal(err)
	}
	return m, j, d
}

// TestObsStreamingIdentical is the observability plane's read-only
// acceptance check at the harness level: the identical workload run plain
// and run under self-metrics + live collectors + an actively draining
// stream sink must export byte-identical metrics and traces and the same
// digest. The sink drains the trace rings from a wall-clock goroutine
// while 8 workers and 2 partition domains are writing — any perturbation
// of the deterministic state shows up here as a flipped byte.
func TestObsStreamingIdentical(t *testing.T) {
	mPlain, jPlain, dPlain := collectObs(t, false)
	mObs, jObs, dObs := collectObs(t, true)
	if !bytes.Equal(mPlain, mObs) {
		t.Errorf("metrics differ with obs plane on (%d bytes) vs off (%d bytes)", len(mObs), len(mPlain))
	}
	if !bytes.Equal(jPlain, jObs) {
		t.Errorf("trace differs with obs plane on (%d bytes) vs off (%d bytes)", len(jObs), len(jPlain))
	}
	if dPlain != dObs {
		t.Errorf("digest %016x with obs plane off != %016x with it on", dPlain, dObs)
	}
	if len(jPlain) == 0 {
		t.Error("trace export is empty; scenario emitted nothing")
	}
}
