package p4_test

import (
	"fmt"

	"repro/internal/p4"
)

// The consistency analyzer implements the multi-threaded state model the
// paper's §7 leaves as future work: it reports how event threads
// sharing a register can observe or lose each other's updates.
func ExampleCompiled_Analyze() {
	compiled := p4.MustCompile(`
shared_register<bit<32>>(64) occ;

control Ingress {
    bit<32> v;
    apply { occ.read(0, v); forward(1); }
}

control Enqueue {
    apply { occ.add(0, ev.pkt_len); }
}

control Timer {
    apply { occ.write(0, 0); }   // periodic reset
}
`)
	for _, h := range compiled.Analyze() {
		fmt.Println(h)
	}
	// Output:
	// stale-read on "occ" involving [Enqueue Ingress]: reads lag deferred updates by the drain backlog (bounded when the pipeline has slack)
	// lost-update on "occ" involving [Enqueue Timer]: deltas deferred before an absolute write drain after it and partially undo the write
	// port-conflict on "occ" involving [Ingress Timer]: direct threads share the main array's one port; when their events ride one slot, all but the first lose their access
}
