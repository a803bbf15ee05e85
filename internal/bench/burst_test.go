package bench

import "testing"

// TestBurstFabricIdentical is the experiment-level differential for the
// burst datapath on the partitioned engine: a HULA leaf-spine fabric at
// 1 and 2 domains, each with bursting off and on, must agree on the full
// deterministic digest (switch stats, link counters, uplink bytes, host
// counters) and on the telemetry digest. Burst slot loops and the
// cross-domain mailboxes sit on this path; the per-packet oracle at
// -domains 1 is the reference.
func TestBurstFabricIdentical(t *testing.T) {
	run := func(noBurst bool, domains int) (uint64, uint64) {
		return smallFabricDigests(t, &Env{noBurst: noBurst}, domains)
	}
	refDig, refTel := run(true, 1)
	for _, tc := range []struct {
		noBurst bool
		domains int
	}{{false, 1}, {true, 2}, {false, 2}} {
		dig, tel := run(tc.noBurst, tc.domains)
		if dig != refDig {
			t.Errorf("fabric digest %016x (noburst=%v domains=%d) != reference %016x",
				dig, tc.noBurst, tc.domains, refDig)
		}
		if tel != refTel {
			t.Errorf("telemetry digest %016x (noburst=%v domains=%d) != reference %016x",
				tel, tc.noBurst, tc.domains, refTel)
		}
	}
}
