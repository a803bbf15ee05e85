package netsim

import (
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// This file is the network half of the checkpoint protocol (DESIGN.md
// §13): per-link direction counters, wire sequence numbers, endpoint
// link views, frames in flight on the wire band, cross-domain mailbox
// contents, and host NIC state. Switches are snapshotted separately
// (core.Switch.Checkpoint); link-transition events scheduled during
// construction are handled by Scheduler.DropFired on the restore side.

// wireFrame is one in-flight frame copy gathered from a wire band.
type wireFrame struct {
	at  sim.Time
	seq uint64
	buf []byte
}

// inFlight gathers every wire-band frame per (link, direction), sorted
// by wire sequence so the snapshot section is deterministic regardless
// of heap layout.
func (n *Network) inFlight() map[*Link][2][]wireFrame {
	out := make(map[*Link][2][]wireFrame)
	seen := make(map[*sim.Scheduler]bool)
	scan := func(s *sim.Scheduler) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		s.EachWire(func(at sim.Time, k1, k2 uint64, r sim.Runner) {
			switch v := r.(type) {
			case *flight:
				frames := out[v.l]
				frames[v.dir] = append(frames[v.dir], wireFrame{at: at, seq: k2, buf: v.buf})
				out[v.l] = frames
			case *mailFlight:
				frames := out[v.l]
				frames[v.dir] = append(frames[v.dir], wireFrame{at: at, seq: k2, buf: v.buf})
				out[v.l] = frames
			case *wireFIFO:
				// One band registration stands for the whole arrival
				// FIFO: every queued entry is an in-flight frame.
				frames := out[v.l]
				for _, en := range v.q.Live() {
					frames[v.dir] = append(frames[v.dir], wireFrame{at: en.at, seq: en.seq, buf: en.buf})
				}
				out[v.l] = frames
			}
		})
	}
	scan(n.sched)
	for _, l := range n.links {
		scan(l.sched[0])
		scan(l.sched[1])
	}
	for _, frames := range out {
		for dir := 0; dir < 2; dir++ {
			sort.Slice(frames[dir], func(i, j int) bool {
				return frames[dir][i].seq < frames[dir][j].seq
			})
		}
	}
	return out
}

// rearm re-creates one direction's in-flight frames on the receiving
// side's wire band with their original (arrival, link, seq) keys. Frames
// are saved sorted by send seq. When this network batches deliveries
// (burstOK) and the arrival times are non-decreasing in that order —
// always true for frames that were queued in a FIFO, and for any
// unimpaired stretch — they reload as one arrival FIFO with a single band
// registration. Otherwise (impairment-scattered arrival times, or
// bursting disabled) each frame reloads as its own per-frame flight,
// exactly as snapshotted runs without bursting would.
func (n *Network) rearm(l *Link, dir int, frames []wireFrame) {
	w, to, key := l.fifo[dir], l.sched[1-dir], l.wireKey(dir)
	w.q.Reset()
	l.legacyPending[dir] = 0
	fifoOK := l.burstOK && len(frames) > 0
	for i := 1; i < len(frames); i++ {
		fifoOK = fifoOK && frames[i].at >= frames[i-1].at
	}
	if fifoOK {
		for _, f := range frames {
			w.q.Push(wireEntry{at: f.at, seq: f.seq, buf: f.buf})
		}
		h := w.q.Peek()
		to.RestoreWireRunner(h.at, key, h.seq, w)
		return
	}
	for _, f := range frames {
		if l.cross {
			to.RestoreWireRunner(f.at, key, f.seq, &mailFlight{n: n, l: l, dir: dir, at: f.at, seq: f.seq, buf: f.buf})
		} else {
			l.legacyPending[dir]++
			to.RestoreWireRunner(f.at, key, f.seq, &flight{n: n, l: l, dir: dir, buf: f.buf})
		}
	}
}

// Checkpoint walks the network's link and host state. Loading needs an
// identically constructed network (same topology, same link order, same
// hosts); host serializations come back with their original (at, seq).
// The attached switches' own port views (linkUp) are walked by
// core.Switch.Checkpoint; here only the link's endpoint views and its
// in-flight frames are.
func (n *Network) Checkpoint(c *checkpoint.Codec) {
	var flights map[*Link][2][]wireFrame
	if !c.Loading() {
		flights = n.inFlight()
	}
	c.FixedInt("netsim: links", len(n.links))
	for _, l := range n.links {
		c.Bool(&l.sideUp[0])
		c.Bool(&l.sideUp[1])
		for dir := 0; dir < 2; dir++ {
			cn := &l.dir[dir]
			c.U64(&cn.Sent)
			c.U64(&cn.LostAtSend)
			c.U64(&cn.Dropped)
			c.U64(&cn.Duplicated)
			c.U64(&cn.Propagated)
			c.U64(&cn.Delivered)
			c.U64(&cn.LostInFlight)
			c.U64(&l.wireSeq[dir])
		}
		for dir := 0; dir < 2; dir++ {
			frames := flights[l][dir]
			nf := c.Len(len(frames))
			if c.Loading() {
				frames = make([]wireFrame, nf)
			}
			for i := range frames {
				f := &frames[i]
				c.I64((*int64)(&f.at))
				c.U64(&f.seq)
				c.Bytes(&f.buf)
			}
			if c.Loaded() {
				n.rearm(l, dir, frames)
			}
			// Cross-domain frames parked in the mailbox, awaiting the next
			// barrier (always empty for non-cross links and at barriers).
			nm := c.Len(len(l.mail[dir]))
			if c.Loading() {
				l.mail[dir] = l.mail[dir][:0]
				for i := 0; i < nm; i++ {
					l.mail[dir] = append(l.mail[dir], &mailFlight{n: n, l: l, dir: dir})
				}
			}
			for _, m := range l.mail[dir] {
				c.I64((*int64)(&m.at))
				c.U64(&m.seq)
				c.Bytes(&m.buf)
			}
		}
	}
	c.FixedInt("netsim: hosts", len(n.hosts))
	for _, h := range n.hosts {
		c.U64(&h.RxPackets)
		c.U64(&h.RxBytes)
		c.U64(&h.HeldFrames)
		c.I64((*int64)(&h.busy))
		c.Bool(&h.paused)
		nheld := c.Len(len(h.held))
		if c.Loading() {
			h.held = make([][]byte, nheld)
		}
		for i := range h.held {
			c.Bytes(&h.held[i])
		}
		// Pending NIC serializations, ordered by event seq.
		txs := append([]*hostTx(nil), h.txActive...)
		sort.Slice(txs, func(i, j int) bool {
			_, si, _ := txs[i].hd.When()
			_, sj, _ := txs[j].hd.When()
			return si < sj
		})
		ntx := c.Len(len(txs))
		if c.Loading() {
			h.txActive, txs = h.txActive[:0], make([]*hostTx, ntx)
			for i := range txs {
				txs[i] = &hostTx{h: h, idx: i}
			}
		}
		for _, t := range txs {
			at, seq, ok := t.hd.When()
			if !c.Loading() && !ok {
				panic("netsim: active host tx with no pending event")
			}
			c.I64((*int64)(&at))
			c.U64(&seq)
			c.Bytes(&t.buf)
			if c.Loaded() {
				h.txActive = append(h.txActive, t)
				t.hd = h.Scheduler().RestoreAtRunner(at, seq, t)
			}
		}
	}
}
