package faults

import "repro/internal/checkpoint"

// Checkpoint walks the engine's per-spec impairment state: injector
// statistics, each spec's RNG stream position, and the Gilbert–Elliott
// chain bits. Loading needs an engine produced by re-running Apply with
// the same schedule on the rebuilt network. Pending storm callbacks are
// NOT captured — a checkpointed run restores fault state for frame
// impairments (loss, corruption, reordering, duplication) and for
// statically unrolled storms, but an unbounded self-rearming flap or
// event storm caught mid-loop cannot be resumed; use bounded storms
// (count/end set) in checkpointed campaigns (documented limitation,
// DESIGN.md §13).
func (e *Engine) Checkpoint(c *checkpoint.Codec) {
	c.FixedInt("faults: specs", len(e.stats))
	for i := range e.stats {
		st := &e.stats[i]
		c.Int(&st.Flaps)
		c.U64(&st.Frames)
		c.U64(&st.Lost)
		c.U64(&st.Corrupted)
		c.U64(&st.Reordered)
		c.U64(&st.Duplicated)
		c.U64(&st.EventsInjected)
		c.U64(&st.EventsRefused)
		rs := e.rngs[i].State()
		for j := range rs {
			c.U64(&rs[j])
		}
		c.Bool(&e.geBad[i])
		if c.Loaded() {
			e.rngs[i].SetState(rs)
		}
	}
}
