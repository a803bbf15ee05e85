package tm

import (
	"repro/internal/checkpoint"
	"repro/internal/packet"
)

// Checkpoint walks the traffic manager: every buffered packet (bytes plus
// metadata, in queue order), per-port discipline state, the PIFO heaps,
// and the lifetime counters. Loading rebuilds the buffered packets
// through pool, so the switch's recycling arena owns them exactly as it
// did in the original run, and re-derives the per-queue and per-port
// byte counts from them.
func (t *TM) Checkpoint(c *checkpoint.Codec, pool *packet.Pool) {
	c.FixedInt("tm: ports", len(t.ports))
	for pi := range t.ports {
		p := &t.ports[pi]
		c.FixedInt("tm: queues per port", len(p.queues))
		for qi := range p.queues {
			q := &p.queues[qi]
			n := c.Len(q.len())
			if c.Loading() {
				q.items.Refill(n)
			}
			live := q.items.Live()
			for i := range live {
				it := &live[i]
				pool.CheckpointPacket(c, &it.pkt)
				c.U64(&it.flowHash)
				c.U64(&it.rank)
				c.I64((*int64)(&it.enqAt))
			}
		}
		for i := range p.deficit {
			c.Int(&p.deficit[i])
		}
		c.Int(&p.rr)
		c.Bool(&p.granted)
		if p.pifo != nil {
			n := c.Len(len(p.pifo.h))
			if c.Loading() {
				p.pifo.h = append(p.pifo.h[:0], make(pifoHeap, n)...)
			}
			for i := range p.pifo.h {
				pe := &p.pifo.h[i]
				ref, _ := pe.item.(pifoRef)
				c.Int(&ref.q)
				c.U64(&pe.rank)
				c.U64(&pe.seq)
				if c.Loading() {
					pe.item = ref
				}
			}
			c.U64(&p.pifo.seq)
		}
	}
	c.U64(&t.seq)
	c.U64(&t.enqueues)
	c.U64(&t.dequeues)
	c.U64(&t.drops)
	c.Int(&t.maxBytes)
	c.Int(&t.totalByte)
	if !c.Loaded() {
		return
	}
	for pi := range t.ports {
		p := &t.ports[pi]
		p.bytes = 0
		for qi := range p.queues {
			q := &p.queues[qi]
			q.bytes = 0
			for _, it := range q.items.Live() {
				q.bytes += it.pkt.Len()
			}
			p.bytes += q.bytes
		}
	}
}
