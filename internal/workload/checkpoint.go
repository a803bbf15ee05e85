package workload

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Checkpoint walks a saturate generator: emission counters, the sub-flow
// cursor, the RNG stream position, and the (at, seq) of the pending
// next-emission event. Loading needs a generator prepared with
// PrepareSaturate (stream set up, no emission yet); the pending emission
// is re-created at its checkpointed (at, seq) so the resumed schedule is
// identical.
func (g *Gen) Checkpoint(c *checkpoint.Codec) {
	if c.Loading() && g.sat == nil {
		c.Fail(fmt.Errorf("workload: loading a checkpoint needs PrepareSaturate first"))
		return
	}
	c.U64(&g.SentPackets)
	c.U64(&g.SentBytes)
	c.Bool(&g.stopped)
	c.U32(&g.satSeq)
	st := g.rng.State()
	for i := range st {
		c.U64(&st[i])
	}
	at, seq, pending := g.pending.When()
	c.Bool(&pending)
	c.I64((*int64)(&at))
	c.U64(&seq)
	if c.Loaded() {
		g.rng.SetState(st)
		if pending {
			g.pending = g.sched.RestoreAtRunner(at, seq, g.sat)
		}
	}
}
