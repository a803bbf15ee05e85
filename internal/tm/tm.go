// Package tm models the traffic manager of a programmable switch: one
// FIFO output queue per port with a byte capacity (tail drop) and — the
// part the paper cares about — event taps that announce buffer enqueue,
// dequeue, overflow, and underflow to the event-driven architecture.
package tm

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Discipline is the type of Config.Discipline. Only benchmark/ names it;
// the next change to the benchmark deletes it.
type Discipline uint8

// FIFO is the one discipline: each port serves its one queue in arrival
// order.
const FIFO Discipline = 0

// Config sizes a traffic manager.
type Config struct {
	Ports int
	// QueuesPerPort is ignored: each port has one queue. Only benchmark/
	// sets it; the next change to the benchmark deletes it.
	QueuesPerPort int
	// QueueCapBytes bounds each port's occupancy in bytes; a packet that
	// would exceed it is dropped (tail drop) with a BufferOverflow event.
	QueueCapBytes int
	// Discipline is ignored: every port is FIFO. Only benchmark/ sets it;
	// the next change to the benchmark deletes it.
	Discipline Discipline
}

// item is a buffered packet with the flow hash its events carry.
type item struct {
	pkt      *packet.Packet
	flowHash uint64
}

// port is one output queue and its buffered bytes.
type port struct {
	items sim.FIFO[item]
	bytes int
}

// TM is the traffic manager. It is a passive data structure: the switch
// model calls Enqueue when the ingress pipeline emits a packet and Dequeue
// when an output port is ready for the next packet. Every state change is
// announced on the event tap, which the event-driven architecture routes
// into its event queues (and the baseline architecture ignores).
type TM struct {
	capBytes int
	ports    []port

	// OnEvent, when non-nil, receives BufferEnqueue, BufferDequeue,
	// BufferOverflow and BufferUnderflow events as they happen. The
	// pointer is to a scratch event the TM overwrites on its next state
	// change: a receiver that keeps the event copies it before returning
	// or calling back into the TM.
	OnEvent func(*events.Event)

	// Muted has bit k set for each event kind OnEvent's receiver would
	// discard unseen. A muted event still takes its sequence number (the
	// counter must not depend on who is listening), but is neither built
	// nor delivered.
	Muted uint32

	// ev is the event OnEvent is handed. A literal in emit would escape
	// through the func value and cost an allocation per state change.
	ev events.Event

	seq       uint64
	enqueues  uint64
	dequeues  uint64
	drops     uint64
	maxBytes  int
	totalByte int
}

// New builds a traffic manager. Zero-value config fields get defaults:
// 1 port, 512 KiB per port.
func New(cfg Config) *TM {
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.QueueCapBytes <= 0 {
		cfg.QueueCapBytes = 512 << 10
	}
	return &TM{capBytes: cfg.QueueCapBytes, ports: make([]port, cfg.Ports)}
}

// emit announces one state change on the event tap.
func (t *TM) emit(k events.Kind, now sim.Time, outPort, pktLen int, flowHash uint64) {
	if t.OnEvent == nil {
		return
	}
	seq := t.seq
	t.seq++
	if t.Muted&(1<<uint(k)) != 0 {
		return
	}
	t.ev = events.Event{
		Kind: k, Seq: seq, When: now, Port: outPort,
		PktLen: int32(pktLen), FlowHash: flowHash,
	}
	t.OnEvent(&t.ev)
}

// Enqueue offers a packet to the given port's queue; flowHash annotates
// the enqueue/dequeue events for per-flow state updates. q and rank are
// ignored: only benchmark/ passes them, and the next change to the
// benchmark deletes them. It returns false when the packet was dropped
// (queue full), which raises a BufferOverflow event rather than a
// BufferEnqueue event.
func (t *TM) Enqueue(pkt *packet.Packet, outPort, q int, rank, flowHash uint64, now sim.Time) bool {
	p := &t.ports[outPort]
	n := pkt.Len()
	if p.bytes+n > t.capBytes {
		t.drops++
		t.emit(events.BufferOverflow, now, outPort, n, flowHash)
		return false
	}
	p.items.Push(item{pkt: pkt, flowHash: flowHash})
	p.bytes += n
	t.totalByte += n
	if t.totalByte > t.maxBytes {
		t.maxBytes = t.totalByte
	}
	t.enqueues++
	t.emit(events.BufferEnqueue, now, outPort, n, flowHash)
	return true
}

// Dequeue removes the next packet from the given output port. ok is false
// when the port is empty. A dequeue that leaves the port with no buffered
// bytes raises BufferUnderflow after the BufferDequeue event.
func (t *TM) Dequeue(outPort int, now sim.Time) (*packet.Packet, bool) {
	p := &t.ports[outPort]
	if p.items.Len() == 0 {
		return nil, false
	}
	it := p.items.Pop()
	n := it.pkt.Len()
	p.bytes -= n
	t.totalByte -= n
	t.dequeues++
	t.emit(events.BufferDequeue, now, outPort, n, it.flowHash)
	if p.bytes == 0 {
		t.emit(events.BufferUnderflow, now, outPort, 0, 0)
	}
	return it.pkt, true
}

// PortBytes returns the buffered bytes on a port.
func (t *TM) PortBytes(outPort int) int { return t.ports[outPort].bytes }

// Stats reports lifetime counters: enqueues, dequeues, overflow drops and
// the peak total buffer occupancy in bytes.
func (t *TM) Stats() (enq, deq, drops uint64, peakBytes int) {
	return t.enqueues, t.dequeues, t.drops, t.maxBytes
}
