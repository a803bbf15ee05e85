package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// collectStalenessMode runs a short staleness sweep with the fast-forward
// forced off (slow=true) or left on, returning the experiment rows plus
// the encoded telemetry (metrics text and JSONL trace — the latter embeds
// every drain commit with its reconstructed timestamp and the staleness
// histograms).
func collectStalenessMode(t *testing.T, slow bool) (rows [][]string, metrics, jsonl []byte) {
	t.Helper()
	env := &Env{Telemetry: &telOpts, slowDrain: slow}
	grid := []struct{ overspeed, load float64 }{
		{1.25, 0.7}, {1.5, 0.7}, {1.0, 1.0},
	}
	rows = RunParallel(env, len(grid), func(trial int) []string {
		pt := grid[trial]
		return runStaleness(env, pt.overspeed, pt.load, 2*sim.Millisecond,
			env.collector(fmt.Sprintf("ff/t%02d", trial)))
	})
	runs := env.TelemetryRuns()
	var err error
	if metrics, err = telemetry.EncodeMetrics(runs); err != nil {
		t.Fatal(err)
	}
	if jsonl, err = telemetry.EncodeJSONL(runs); err != nil {
		t.Fatal(err)
	}
	return rows, metrics, jsonl
}

// TestFastForwardStalenessIdentical is the switch-level differential for
// the drain fast-forward on the staleness experiment: disabling the
// fast-forward must not change a single experiment cell, metric line, or
// trace byte — including the staleness histograms and per-drain commit
// timestamps, which the fast-forward reconstructs in virtual time.
func TestFastForwardStalenessIdentical(t *testing.T) {
	slowRows, slowM, slowJ := collectStalenessMode(t, true)
	fastRows, fastM, fastJ := collectStalenessMode(t, false)
	if len(slowRows) != len(fastRows) {
		t.Fatalf("row count differs: slow %d, fast %d", len(slowRows), len(fastRows))
	}
	for i := range slowRows {
		for j := range slowRows[i] {
			if slowRows[i][j] != fastRows[i][j] {
				t.Errorf("row %d col %d differs: slow %q, fast %q", i, j, slowRows[i][j], fastRows[i][j])
			}
		}
	}
	if !bytes.Equal(slowM, fastM) {
		t.Errorf("metrics export differs: slow %d bytes, fast %d bytes", len(slowM), len(fastM))
	}
	if !bytes.Equal(slowJ, fastJ) {
		t.Errorf("trace export differs: slow %d bytes, fast %d bytes", len(slowJ), len(fastJ))
	}
	if len(slowJ) == 0 {
		t.Error("trace export is empty; differential covers nothing")
	}
}

// TestFastForwardFig3Identical runs the fig3 experiment — the direct
// aggregation-register workload — in both modes and compares the rendered
// tables byte for byte. (The state-level DrainN replay itself is pinned by
// TestDrainNMatchesEndCycleLoop in internal/state.)
func TestFastForwardFig3Identical(t *testing.T) {
	slowTab := Fig3(&Env{slowDrain: true}).String()
	fastTab := Fig3(&Env{}).String()
	if slowTab != fastTab {
		t.Errorf("fig3 table differs with fast-forward disabled:\nslow:\n%s\nfast:\n%s", slowTab, fastTab)
	}
}

// TestFastForwardFabricIdentical covers the partitioned engine: a HULA
// leaf-spine fabric at 1 and 2 domains, each with the fast-forward off and
// on, must agree on the full deterministic digest (switch stats, link
// counters, uplink bytes, host counters) and on the telemetry digest. The
// fast-forward must pause at window barriers exactly where the slow path
// stops its last cycle.
func TestFastForwardFabricIdentical(t *testing.T) {
	run := func(slow bool, domains int) (uint64, uint64) {
		return smallFabricDigests(t, &Env{slowDrain: slow}, domains)
	}
	refDig, refTel := run(true, 1)
	for _, tc := range []struct {
		slow    bool
		domains int
	}{{false, 1}, {true, 2}, {false, 2}} {
		dig, tel := run(tc.slow, tc.domains)
		if dig != refDig {
			t.Errorf("fabric digest %016x (slow=%v domains=%d) != reference %016x",
				dig, tc.slow, tc.domains, refDig)
		}
		if tel != refTel {
			t.Errorf("telemetry digest %016x (slow=%v domains=%d) != reference %016x",
				tel, tc.slow, tc.domains, refTel)
		}
	}
}
