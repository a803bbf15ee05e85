package bench

import (
	"testing"

	"repro/internal/sim"
)

// TestDomainDeterminism is the parallel engine's acceptance check at the
// experiment level: every domain-aware experiment renders byte-identical
// output at 1, 2, and 4 partition domains. The topologies differ (leaf-
// spine fabric, FRR diamond under a flap storm, replication chain), so
// together they cover cross-domain data traffic, scheduled link changes,
// and multi-hop request/reply paths.
func TestDomainDeterminism(t *testing.T) {
	for _, id := range []string{"hula", "resilience", "netchain"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		base := e.Run(&Env{Domains: 1}).String()
		for _, n := range []int{2, 4} {
			if got := e.Run(&Env{Domains: n}).String(); got != base {
				t.Errorf("%s: -domains %d diverges from -domains 1:\n--- domains=1 ---\n%s\n--- domains=%d ---\n%s",
					id, n, base, n, got)
			}
		}
	}
}

// TestScaleDigestsMatch runs the scale sweep and checks its built-in
// self-check: every multi-domain row's digest equals the 1-domain
// baseline for the same fabric.
func TestScaleDigestsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("the full scale sweep, k=8 fat tree included")
	}
	res, metrics := scaleSweep(&Env{})
	for _, row := range res.Rows {
		if row[len(row)-1] == "NO" {
			t.Errorf("digest mismatch in scale row %v", row)
		}
	}
	// The latency-diverse fat trees are where adaptive batching must pay:
	// the classic fixed-width twin needs at least twice the barriers of
	// the adaptive run at the same width. Barriers are simulated
	// quantities, so the bound holds on any host.
	for _, label := range []string{"ft4", "ft8"} {
		adaptive, classic := metrics[label+"/4"].barriers, metrics[label+"/4c"].barriers
		if adaptive == 0 || classic < 2*adaptive {
			t.Errorf("%s d4: %d adaptive barriers vs %d classic, want a >= 2x reduction",
				label, adaptive, classic)
		}
	}
}

// TestFatTreeScaleSmoke is the reduced fat-tree digest check: a short
// k=4 run (4 full epoch rotations) whose digest must be identical at 1
// and 4 domains, with adaptive batching and with the classic fixed-width
// oracle. Small enough to run under the race detector (`make race`).
func TestFatTreeScaleSmoke(t *testing.T) {
	spec := fatTreeSpec{
		k: 4, horizon: 4 * sim.Millisecond, slot: 250 * sim.Microsecond,
		hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond,
	}
	spec.domains = 1
	base := runFatTree(&Env{}, spec)
	for _, cfg := range []struct {
		label   string
		domains int
		classic bool
	}{
		{"d4 adaptive", 4, false},
		{"d4 classic", 4, true},
	} {
		s := spec
		s.domains, s.classic = cfg.domains, cfg.classic
		if got := runFatTree(&Env{}, s); got.ident() != base.ident() {
			t.Errorf("%s digest %016x != d1 digest %016x", cfg.label, got.digest, base.digest)
		}
	}
}
