package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

// collectObs runs the same instrumented workload — a staleness sweep on 8
// workers plus a 2-domain HULA fabric — and returns the encoded metrics,
// JSONL trace, and digest. With selfOn every scheduler, switch and worker
// pool of the campaign also records into a self-metrics plane.
func collectObs(t *testing.T, selfOn bool) ([]byte, []byte, uint64) {
	t.Helper()
	env := &Env{Parallelism: 8, Telemetry: &telOpts}
	if selfOn {
		env.Self = new(self.Plane)
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
	if selfOn && env.Self.SchedDispatch.Value() == 0 {
		t.Error("the self-metrics plane recorded no dispatches")
	}

	runs := env.TelemetryRuns()
	m, err := telemetry.EncodeMetrics(runs)
	if err != nil {
		t.Fatal(err)
	}
	j := telemetry.EncodeJSONL(runs)
	d, err := telemetry.Digest(runs)
	if err != nil {
		t.Fatal(err)
	}
	return m, j, d
}

// TestSelfPlaneIdentical is the self-metrics plane's read-only check at
// the harness level: the identical workload run plain and run with a
// plane that 8 workers and 2 partition domains record into must export
// byte-identical metrics and traces and the same digest.
func TestSelfPlaneIdentical(t *testing.T) {
	mPlain, jPlain, dPlain := collectObs(t, false)
	mObs, jObs, dObs := collectObs(t, true)
	if !bytes.Equal(mPlain, mObs) {
		t.Errorf("metrics differ with the self plane on (%d bytes) vs off (%d bytes)", len(mObs), len(mPlain))
	}
	if !bytes.Equal(jPlain, jObs) {
		t.Errorf("trace differs with the self plane on (%d bytes) vs off (%d bytes)", len(jObs), len(jPlain))
	}
	if dPlain != dObs {
		t.Errorf("digest %016x with the self plane off != %016x with it on", dPlain, dObs)
	}
	if len(jPlain) == 0 {
		t.Error("trace export is empty; scenario emitted nothing")
	}
}
