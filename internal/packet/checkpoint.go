package packet

import (
	"fmt"

	"repro/internal/checkpoint"
)

// poolWarmCap is the Data capacity pre-grown into free-list packets
// fabricated by a checkpoint load. A restored free list must behave like
// the original's — handing out buffers that hold a full frame without
// growing — so the steady-state loop stays allocation-free from the
// first post-restore packet.
const poolWarmCap = 2048

// CheckpointPacket walks the one packet record every holder of packets
// (staging queues, conveyor, transmitters, TM) writes: bytes, ingress
// port, generated flag, recirculation count. Loading draws *pp from the
// pool first, so the switch's recycling arena owns it exactly as it did
// in the original run; a codec that has already failed draws nothing.
func (pl *Pool) CheckpointPacket(c *checkpoint.Codec, pp **Packet) {
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		*pp = pl.Get()
	}
	p := *pp
	c.Bytes(&p.Data)
	c.Int(&p.InPort)
	c.Bool(&p.Gen)
	c.Int(&p.Recirc)
}

// Checkpoint walks the pool's observable state: the free-list depth and
// the lifetime allocation counters. The packets themselves are walked by
// whoever holds them (queues, TM, wire). Call it after every live packet
// has been walked: loading the free-list depth and counters last makes
// the pool's future Get/Release behavior (and its News/Reuses counters)
// identical to the uninterrupted run's.
func (pl *Pool) Checkpoint(c *checkpoint.Codec) {
	held := pl.News - uint64(len(pl.free)) // loading: what the holders just drew back out
	depth := len(pl.free)
	c.Int(&depth)
	c.U64(&pl.News)
	c.U64(&pl.Reuses)
	if !c.Loaded() {
		return
	}
	// Every packet a pool ever allocated is on its free list or with a
	// holder, and a pool only ever frees packets it allocated. A depth
	// that breaks this is not a state any run reaches — and it is the one
	// count in the format that sizes an allocation with no bytes behind
	// it, a warm buffer per free packet.
	if depth < 0 || uint64(depth)+held != pl.News {
		c.Fail(fmt.Errorf("packet: snapshot pool has %d packets free and allocated %d, but its holders restored %d", depth, pl.News, held))
		return
	}
	pl.free = pl.free[:0]
	for i := 0; i < depth; i++ {
		pl.free = append(pl.free, &Packet{pool: pl, freed: true, Data: make([]byte, 0, poolWarmCap)})
	}
}
