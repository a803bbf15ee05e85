package tm

import (
	"repro/internal/checkpoint"
	"repro/internal/packet"
)

// Checkpoint walks the traffic manager: every buffered packet (bytes plus
// flow hash, in queue order) and the lifetime counters. Loading rebuilds
// the buffered packets through pool, so the switch's recycling arena owns
// them exactly as it did in the original run, and re-derives the per-port
// byte counts from them.
func (t *TM) Checkpoint(c *checkpoint.Codec, pool *packet.Pool) {
	c.FixedInt("tm: ports", len(t.ports))
	for pi := range t.ports {
		p := &t.ports[pi]
		n := c.Len(p.items.Len())
		if c.Loading() {
			p.items.Refill(n)
		}
		live := p.items.Live()
		for i := range live {
			it := &live[i]
			pool.CheckpointPacket(c, &it.pkt)
			c.U64(&it.flowHash)
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
		for _, it := range p.items.Live() {
			p.bytes += it.pkt.Len()
		}
	}
}
