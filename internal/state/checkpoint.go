package state

import "repro/internal/checkpoint"

// Checkpoint walks the array: values, cycle, per-cycle port usage, and
// lifetime access counters. The cycle is assigned directly on load (Tick
// would refuse to move backwards from a partially run constructor state,
// and must not reset the restored port usage).
func (a *Array) Checkpoint(c *checkpoint.Codec) {
	c.FixedU32("state: array "+a.name+": entries", len(a.vals))
	for i := range a.vals {
		c.U64(&a.vals[i])
	}
	c.Int(&a.used)
	c.U64(&a.cycle)
	c.U64(&a.reads)
	c.U64(&a.writes)
	c.U64(&a.denied)
}

// Checkpoint walks the aggregation machinery: the main array, every bank
// (deltas, dirty FIFO live region, per-index enqueue cycles), and the
// drain statistics. The dirty FIFO is written live-region-only and loaded
// at head 0, which preserves pop order exactly.
func (ag *Aggregated) Checkpoint(c *checkpoint.Codec) {
	ag.main.Checkpoint(c)
	c.FixedU32("state: "+ag.main.Name()+": banks", len(ag.banks))
	for _, b := range ag.banks {
		b.arr.Checkpoint(c)
		c.FixedU32("state: bank "+b.name+": entries", len(b.delta))
		for i := range b.delta {
			c.I64(&b.delta[i])
			c.U64(&b.since[i])
			c.Bool(&b.inq[i])
		}
		n := c.Len32(len(b.dirty) - b.head)
		if c.Loading() {
			b.dirty, b.head = append(b.dirty[:0], make([]uint32, n)...), 0
		}
		for i := range b.dirty[b.head:] {
			c.U32(&b.dirty[b.head+i])
		}
		c.U64(&b.lastDrain)
	}
	c.U64(&ag.drained)
	c.U64(&ag.deferred)
	c.U64(&ag.dropped)
	c.Int(&ag.maxBacklog)
	c.U64(&ag.stalenessSum)
	c.U64(&ag.stalenessMax)
	c.Int(&ag.rrNext)
}
