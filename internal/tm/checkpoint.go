package tm

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Snapshot serializes the traffic manager: every buffered packet (bytes
// plus metadata, in queue order), per-port discipline state, the PIFO
// heaps, and the lifetime counters.
func (t *TM) Snapshot(e *checkpoint.Encoder) {
	e.Int(len(t.ports))
	for pi := range t.ports {
		p := &t.ports[pi]
		e.Int(len(p.queues))
		for qi := range p.queues {
			q := &p.queues[qi]
			e.Int(q.len())
			live := q.items.Live()
			for i := range live {
				it := &live[i]
				e.BytesField(it.pkt.Data)
				e.Int(it.pkt.InPort)
				e.Bool(it.pkt.Gen)
				e.Int(it.pkt.Recirc)
				e.U64(it.flowHash)
				e.U64(it.rank)
				e.I64(int64(it.enqAt))
			}
		}
		for _, dq := range p.deficit {
			e.Int(dq)
		}
		e.Int(p.rr)
		e.Bool(p.granted)
		if p.pifo != nil {
			e.Int(len(p.pifo.h))
			for _, pe := range p.pifo.h {
				e.Int(pe.item.(pifoRef).q)
				e.U64(pe.rank)
				e.U64(pe.seq)
			}
			e.U64(p.pifo.seq)
		}
	}
	e.U64(t.seq)
	e.U64(t.enqueues)
	e.U64(t.dequeues)
	e.U64(t.drops)
	e.Int(t.maxBytes)
	e.Int(t.totalByte)
}

// Restore loads a snapshot into an identically configured TM. Buffered
// packets are rebuilt through pool (GetCopy), so the switch's recycling
// arena owns them exactly as it did in the original run.
func (t *TM) Restore(d *checkpoint.Decoder, pool *packet.Pool) {
	np := d.Int()
	if d.Err() != nil {
		return
	}
	if np != len(t.ports) {
		d.Fail(fmt.Errorf("tm: snapshot has %d ports, TM has %d", np, len(t.ports)))
		return
	}
	t.totalByte = 0
	for pi := range t.ports {
		p := &t.ports[pi]
		nq := d.Int()
		if d.Err() != nil {
			return
		}
		if nq != len(p.queues) {
			d.Fail(fmt.Errorf("tm: port %d: snapshot has %d queues, TM has %d", pi, nq, len(p.queues)))
			return
		}
		p.bytes = 0
		for qi := range p.queues {
			q := &p.queues[qi]
			n := d.Int()
			if d.Err() != nil {
				return
			}
			q.items.Reset()
			q.bytes = 0
			for i := 0; i < n; i++ {
				data := d.BytesField()
				inPort := d.Int()
				gen := d.Bool()
				recirc := d.Int()
				if d.Err() != nil {
					return
				}
				pkt := pool.GetCopy(data, inPort)
				pkt.Gen = gen
				pkt.Recirc = recirc
				it := item{
					pkt:      pkt,
					flowHash: d.U64(),
					rank:     d.U64(),
					enqAt:    sim.Time(d.I64()),
				}
				q.push(it)
			}
			p.bytes += q.bytes
		}
		for i := range p.deficit {
			p.deficit[i] = d.Int()
		}
		p.rr = d.Int()
		p.granted = d.Bool()
		if p.pifo != nil {
			n := d.Int()
			if d.Err() != nil {
				return
			}
			p.pifo.h = p.pifo.h[:0]
			for i := 0; i < n; i++ {
				p.pifo.h = append(p.pifo.h, pifoEntry{
					item: pifoRef{q: d.Int()},
					rank: d.U64(),
					seq:  d.U64(),
				})
			}
			p.pifo.seq = d.U64()
		}
		t.totalByte += p.bytes
	}
	t.seq = d.U64()
	t.enqueues = d.U64()
	t.dequeues = d.U64()
	t.drops = d.U64()
	t.maxBytes = d.Int()
	t.totalByte = d.Int()
}
