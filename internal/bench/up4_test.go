package bench

import "testing"

// TestUP4BackendsInvariant is the acceptance check for the µP4
// compilation backend at the experiment level: at parallelism 8 and 2
// partition domains, every interp row of the up4 table — cycle count,
// tx count, and digest — equals its program's compiled row.
func TestUP4BackendsInvariant(t *testing.T) {
	interpRows := 0
	for _, row := range UP4Bench(&Env{Parallelism: 8, Domains: 2}).Rows {
		if row[1] != "interp" {
			continue
		}
		interpRows++
		if row[len(row)-1] != "yes" {
			t.Errorf("up4 interp row diverges from its compiled baseline: %v", row)
		}
	}
	if interpRows != len(up4Programs) {
		t.Errorf("up4 table has %d interp rows, want %d", interpRows, len(up4Programs))
	}
}

// TestUP4DomainsIdentical checks that each program's chain run is
// byte-identical when the three switches are split across 2 partition
// domains, for both backends — the compiled closures introduce no
// scheduler-order dependence.
func TestUP4DomainsIdentical(t *testing.T) {
	for _, prog := range up4Programs {
		for _, interp := range []bool{false, true} {
			m1 := runUP4Chain(&Env{Domains: 1}, prog, interp)
			m2 := runUP4Chain(&Env{Domains: 2}, prog, interp)
			if m1.digest != m2.digest {
				t.Errorf("%s (interp=%v): domains=2 digest %016x != domains=1 digest %016x",
					prog, interp, m2.digest, m1.digest)
			}
		}
	}
}

// TestUP4RowsSelfCheck runs the experiment once and asserts its built-in
// differential column never reports a divergence.
func TestUP4RowsSelfCheck(t *testing.T) {
	res := UP4Bench(&Env{})
	for _, row := range res.Rows {
		if row[len(row)-1] == "NO" {
			t.Errorf("backend digest mismatch in up4 row %v", row)
		}
	}
}
