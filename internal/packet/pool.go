package packet

import "repro/internal/telemetry/self"

// Pool is a DPDK-mempool-style recycling arena for Packets and their frame
// buffers. A Get/GetCopy hands out a packet whose Data slice reuses the
// capacity left behind by an earlier Release, so a steady-state
// rx→pipeline→tx loop performs zero heap allocations once the free list
// and the per-packet buffers have warmed up.
//
// Ownership rules (documented in DESIGN.md §11):
//
//   - A packet obtained from a Pool is owned by exactly one holder at a
//     time. Whoever drops the last reference calls Release; releasing
//     twice panics (the freed flag catches the first offender rather than
//     silently corrupting a later holder).
//   - Data buffers keep their capacity across recycling (they only grow),
//     which is what makes the steady state allocation-free.
//
// A Pool is deliberately not safe for concurrent use: the simulator gives
// each switch its own pool and each partition domain runs single-threaded,
// so no locks are needed and determinism is preserved.
type Pool struct {
	free []*Packet

	// Self, when the pool's owner sets it before the first Get, tracks
	// outstanding packets in that run's self-metrics plane (PoolInUse).
	Self *self.Plane
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zero-valued packet owned by the caller. Data is empty but
// retains any recycled capacity.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.Data = p.Data[:0]
		p.InPort = 0
		p.Empty = false
		p.Gen = false
		p.Recirc = 0
		p.freed = false
		if pl.Self != nil {
			pl.Self.PoolInUse.Add(1)
		}
		return p
	}
	if pl.Self != nil {
		pl.Self.PoolInUse.Add(1)
	}
	return &Packet{pool: pl}
}

// GetCopy returns a pooled packet carrying a private copy of data, arrived
// on inPort. The caller's slice is not retained.
func (pl *Pool) GetCopy(data []byte, inPort int) *Packet {
	p := pl.Get()
	p.Data = append(p.Data, data...)
	p.InPort = inPort
	return p
}

// Release returns the packet to its pool. It is a no-op for unpooled
// packets (pool == nil), so callers can release unconditionally. Releasing
// a pooled packet twice panics.
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	if p.freed {
		panic("packet: double Release")
	}
	p.freed = true
	pl.free = append(pl.free, p)
	if pl.Self != nil {
		pl.Self.PoolInUse.Add(-1)
	}
}
