package bench

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// telOpts keeps the test collectors small but with sampling on, so the
// determinism checks cover counters, gauges, histograms, and ring
// overflow (the 1<<12 cap is far below what these runs emit).
var telOpts = telemetry.Options{
	TraceCap:     1 << 12,
	SamplePeriod: 50 * sim.Microsecond,
}

// smallFabric runs the 2x2 HULA fabric the fabric-level differentials
// share for 5 ms on env at the given domain count, instrumented, and
// returns its metrics and its telemetry.
func smallFabric(env *Env, domains int) (fabricMetrics, []telemetry.RunExport) {
	c := telemetry.New(telOpts)
	m := runHULAFabric(env, fabricSpec{
		tors: 2, spines: 2,
		probePeriod: 200 * sim.Microsecond,
		horizon:     5 * sim.Millisecond,
		flows:       4,
		flowRate:    660 * sim.Mbps,
		domains:     domains,
		tel:         c,
	})
	return m, []telemetry.RunExport{{Label: "fab", C: c}}
}

// smallFabricDigests is smallFabric reduced to the two digests the
// oracle differentials compare: the fabric's and its telemetry's.
func smallFabricDigests(t *testing.T, env *Env, domains int) (uint64, uint64) {
	t.Helper()
	m, runs := smallFabric(env, domains)
	telDig, err := telemetry.Digest(runs)
	if err != nil {
		t.Fatal(err)
	}
	return m.digest, telDig
}

// collectStaleness runs a short staleness sweep through the RunParallel
// harness at the given worker count and returns the encoded metrics and
// JSONL trace bytes.
func collectStaleness(t *testing.T, par int) ([]byte, []byte) {
	t.Helper()
	env := &Env{Parallelism: par, Telemetry: &telOpts}
	loads := []float64{0.7, 1.0}
	RunParallel(env, len(loads), func(trial int) []string {
		return runStaleness(env, 1.25, loads[trial], 2*sim.Millisecond,
			env.collector(fmt.Sprintf("par/t%02d", trial)))
	})
	runs := env.TelemetryRuns()
	if len(runs) != len(loads) {
		t.Fatalf("collected %d runs, want %d", len(runs), len(loads))
	}
	m, err := telemetry.EncodeMetrics(runs)
	if err != nil {
		t.Fatal(err)
	}
	return m, telemetry.EncodeJSONL(runs)
}

// TestTelemetryParallelIdentical is the exporter's acceptance check
// against the worker pool: the same experiment collected serially and on
// 8 workers must export byte-identical metrics and trace files. Trials
// finish in arbitrary order under the pool; only label-sorted export
// makes this hold.
func TestTelemetryParallelIdentical(t *testing.T) {
	m1, j1 := collectStaleness(t, 1)
	m8, j8 := collectStaleness(t, 8)
	if !bytes.Equal(m1, m8) {
		t.Errorf("metrics differ between -parallel 1 (%d bytes) and 8 (%d bytes)", len(m1), len(m8))
	}
	if !bytes.Equal(j1, j8) {
		t.Errorf("trace differs between -parallel 1 (%d bytes) and 8 (%d bytes)", len(j1), len(j8))
	}
	if len(j1) == 0 {
		t.Error("trace export is empty; scenario emitted nothing")
	}
}

// TestTelemetryDomainsIdentical checks the same property against the
// conservative parallel engine: one fabric instrumented at 1 and 2
// partition domains exports byte-identical telemetry. Gauges are sampled
// on sim-time ticks (never at window barriers) and link counters are
// snapshotted after the run, so domain count must not leak into the
// files.
func TestTelemetryDomainsIdentical(t *testing.T) {
	runFabric := func(domains int) []telemetry.RunExport {
		_, runs := smallFabric(&Env{}, domains)
		return runs
	}
	r1, r2 := runFabric(1), runFabric(2)
	for _, enc := range []struct {
		name string
		fn   func([]telemetry.RunExport) ([]byte, error)
	}{
		{"metrics", telemetry.EncodeMetrics},
		{"jsonl", func(r []telemetry.RunExport) ([]byte, error) { return telemetry.EncodeJSONL(r), nil }},
	} {
		b1, err := enc.fn(r1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := enc.fn(r2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s export differs between -domains 1 (%d bytes) and 2 (%d bytes)",
				enc.name, len(b1), len(b2))
		}
	}
	d1, err := telemetry.Digest(r1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := telemetry.Digest(r2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("digest %016x at domains=1 != %016x at domains=2", d1, d2)
	}
}

// TestStalenessHistogramBound ties the new staleness histogram to the
// paper's §4 claim: with pipeline overspeed the cycles an aggregation
// delta waits before draining are bounded — a vanishing fraction of the
// run — while the break-even no-slack regime defers far longer.
func TestStalenessHistogramBound(t *testing.T) {
	lagHist := func(overspeed, load float64) *telemetry.Histogram {
		t.Helper()
		c := telemetry.New(telOpts)
		runStaleness(&Env{}, overspeed, load, 2*sim.Millisecond, c)
		h := c.Registry().Histogram("sw.switch.reg.occ.staleness.cycles")
		if b := bits.Len64(h.Max()); h.Count() > 0 && h.Bucket(b) == 0 {
			t.Errorf("max %d not counted in its bucket %d", h.Max(), b)
		}
		return h
	}

	// Bounded regime (overspeed 1.5, load 70%): drains run on idle
	// cycles and the worst defer lag is a sliver of the run, not
	// proportional to it.
	c := telemetry.New(telOpts)
	runStaleness(&Env{}, 1.5, 0.7, 2*sim.Millisecond, c)
	h := c.Registry().Histogram("sw.switch.reg.occ.staleness.cycles")
	cycles := c.Registry().Counter("sw.switch.cycles").Value()
	if h.Count() == 0 {
		t.Fatal("bounded regime recorded no drains")
	}
	if b := bits.Len64(h.Max()); h.Bucket(b) == 0 {
		t.Errorf("max %d not counted in its bucket %d", h.Max(), b)
	}
	if h.Max()*16 > cycles {
		t.Errorf("bounded regime: max defer lag %d cycles is not small vs %d total cycles", h.Max(), cycles)
	}

	// No-slack regime (overspeed 1.0, load 100%): there is never an idle
	// cycle, so deltas sit in the aggregation banks for the entire run —
	// the histogram records no drains at all, the unbounded-debt
	// signature the §4 experiment reports as "bounded: no".
	if h2 := lagHist(1.0, 1.0); h2.Count() != 0 {
		t.Errorf("no-slack regime drained %d times; expected the drain process to starve", h2.Count())
	}
}
