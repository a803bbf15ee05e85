// Package events defines the data-plane events of the paper's Table 1 and
// the bounded event queues that carry them from their hardware sources
// (traffic manager, timer block, link monitor, control plane) to the Event
// Merger at the head of the P4 pipeline.
//
// A data-plane event is "an architectural state change that triggers
// processing in the programming model" (paper §1). The baseline PISA model
// exposes only the packet events; the event-driven architecture exposes
// all of them.
package events

import (
	"fmt"

	"repro/internal/sim"
)

// Kind enumerates the data-plane events of Table 1.
type Kind uint8

// The thirteen event kinds of the paper's Table 1.
const (
	// IngressPacket fires when a packet arrives on an input port. It is
	// one of the two events baseline PISA architectures expose.
	IngressPacket Kind = iota
	// EgressPacket fires when a packet leaves the traffic manager toward
	// an output port (the PSA egress pipeline's trigger).
	EgressPacket
	// RecirculatedPacket fires when a packet re-enters the ingress
	// pipeline via the recirculation path.
	RecirculatedPacket
	// GeneratedPacket fires when the data-plane packet generator emits a
	// packet (e.g. a HULA probe or liveness echo).
	GeneratedPacket
	// PacketTransmitted fires when a packet has been put on the wire.
	PacketTransmitted
	// BufferEnqueue fires when the traffic manager accepts a packet into
	// an output queue.
	BufferEnqueue
	// BufferDequeue fires when a packet leaves an output queue.
	BufferDequeue
	// BufferOverflow fires when the traffic manager drops a packet
	// because its queue is full.
	BufferOverflow
	// BufferUnderflow fires when a queue drains to empty.
	BufferUnderflow
	// TimerExpiration fires when a configured data-plane timer expires.
	TimerExpiration
	// ControlPlaneTriggered fires when the control plane injects an
	// event (e.g. "reset the sketch now").
	ControlPlaneTriggered
	// LinkStatusChange fires when a port's link goes up or down.
	LinkStatusChange
	// UserEvent fires when the P4 program itself raises an event from an
	// event handler (a software-defined event).
	UserEvent

	numKinds
)

// NumKinds is the number of distinct event kinds.
const NumKinds = int(numKinds)

// String names the event kind as in Table 1.
func (k Kind) String() string {
	switch k {
	case IngressPacket:
		return "IngressPacket"
	case EgressPacket:
		return "EgressPacket"
	case RecirculatedPacket:
		return "RecirculatedPacket"
	case GeneratedPacket:
		return "GeneratedPacket"
	case PacketTransmitted:
		return "PacketTransmitted"
	case BufferEnqueue:
		return "BufferEnqueue"
	case BufferDequeue:
		return "BufferDequeue"
	case BufferOverflow:
		return "BufferOverflow"
	case BufferUnderflow:
		return "BufferUnderflow"
	case TimerExpiration:
		return "TimerExpiration"
	case ControlPlaneTriggered:
		return "ControlPlaneTriggered"
	case LinkStatusChange:
		return "LinkStatusChange"
	case UserEvent:
		return "UserEvent"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsPacketEvent reports whether k is one of the packet events that
// baseline PISA architectures already expose (the first three rows of
// Table 1's left column).
func (k Kind) IsPacketEvent() bool {
	switch k {
	case IngressPacket, EgressPacket, RecirculatedPacket:
		return true
	}
	return false
}

// Event is the metadata record describing one data-plane event. When the
// Event Merger attaches it to a pipeline slot it becomes the event
// metadata visible to the P4 event-handler controls (e.g. the paper's
// enq_meta / deq_meta).
//
// Like the SUME Event Switch's metadata bus (paper §3, Fig. 4) it is one
// fixed-width word: 48 bytes, small enough that every copy between the
// traffic manager, the event FIFOs and the slot is a few inline moves.
// The narrow fields are last so that they share one 8-byte word.
type Event struct {
	// When is the instant the event was generated by its source.
	When sim.Time
	// Seq is a per-source sequence number for tracing.
	Seq uint64
	// FlowHash carries the packet's flow hash for per-flow state
	// updates (the paper's enq_meta.flowID).
	FlowHash uint64
	// Data is the payload of control-plane and user events.
	Data uint64
	// Port is the relevant port (enq/deq/overflow: output port;
	// link status / transmitted: the port; otherwise -1).
	Port int
	// PktLen is the packet length in bytes for enqueue/dequeue/
	// overflow/transmitted events.
	PktLen int32
	// TimerID identifies which timer expired.
	TimerID int16
	// Kind is the event's row of Table 1.
	Kind Kind
	// Up is the new link state for LinkStatusChange.
	Up bool
}

// String renders the event for traces.
func (e Event) String() string {
	return fmt.Sprintf("%s@%v(port=%d len=%d)", e.Kind, e.When, e.Port, e.PktLen)
}

// OverflowPolicy selects what a Queue does under pressure. A fault storm
// can offer events far faster than the merger drains them; the policy
// decides which events survive.
type OverflowPolicy uint8

const (
	// DropNewest discards the incoming event when the queue is full —
	// the hardware default (the FIFO's write port simply isn't granted).
	DropNewest OverflowPolicy = iota
	// DropOldest evicts the oldest queued event to admit the newest, so
	// the freshest state survives a storm. Each eviction is counted as a
	// shed event.
	DropOldest
	// CoalescePort merges an incoming event into the pending event for
	// the same port, newest state winning, whether or not the queue is
	// full; with no same-port event pending it stores normally and falls
	// back to DropNewest when full. Built for LinkStatusChange, where a
	// flap burst collapses to the port's final state.
	CoalescePort
)

// Outcome reports what Offer did with an event.
type Outcome uint8

const (
	// Stored: the event was appended to the queue.
	Stored Outcome = iota
	// StoredShed: the event was appended after evicting the oldest
	// queued event (DropOldest under overflow).
	StoredShed
	// Coalesced: the event was merged into a pending same-port event
	// (CoalescePort); nothing new was stored.
	Coalesced
	// Dropped: the queue was full and the event was discarded.
	Dropped
)

// Queue is a bounded FIFO of events between an event source and the Event
// Merger, with a configurable overflow policy. The merger drains queues
// according to its per-kind priority.
//
// The counters partition every offered event exactly once:
//
//	offered = Pushed() + Coalesced() + Drops()
//
// and every pushed event is eventually popped, evicted, or still queued:
//
//	Pushed() = popped + Shed() + Len()
//
// faults.Audit checks both identities at the end of each experiment.
type Queue struct {
	kind      Kind
	policy    OverflowPolicy
	capacity  int
	buf       []Event // the ring; nil until Reserve or the first stored event
	head, sz  int
	drops     uint64
	pushed    uint64
	coalesced uint64
	shed      uint64
}

// NewQueue returns a bounded event queue for one event kind.
func NewQueue(kind Kind, capacity int) *Queue {
	if capacity <= 0 {
		panic("events: queue capacity must be positive")
	}
	return &Queue{kind: kind, capacity: capacity}
}

// Reserve allocates the ring now instead of when the first event is
// stored. A switch has a queue per kind and most programs handle two or
// three, so the ring (capacity × 48 B) is not paid for at construction;
// core.Switch.Load reserves the kinds its program handles, which keeps the
// allocation out of the run.
func (q *Queue) Reserve() {
	if q.buf == nil {
		q.buf = make([]Event, q.capacity)
	}
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return q.sz }

// Drops returns the number of events dropped because the queue was full.
func (q *Queue) Drops() uint64 { return q.drops }

// Pushed returns the number of events stored (including those later shed).
func (q *Queue) Pushed() uint64 { return q.pushed }

// Coalesced returns the number of events merged into a pending entry.
func (q *Queue) Coalesced() uint64 { return q.coalesced }

// Shed returns the number of stored events evicted under DropOldest.
func (q *Queue) Shed() uint64 { return q.shed }

// SetPolicy selects the queue's overflow policy (default DropNewest).
func (q *Queue) SetPolicy(p OverflowPolicy) { q.policy = p }

// Offer is OfferRef for a caller that holds the event by value.
func (q *Queue) Offer(e Event) Outcome {
	return q.OfferRef(&e)
}

// OfferRef applies the queue's overflow policy to an incoming event and
// reports what happened to it. The event is copied into the ring (or over
// the pending same-port entry) before OfferRef returns and the pointer is
// not retained, so the caller may reuse or overwrite *e at once.
func (q *Queue) OfferRef(e *Event) Outcome {
	if q.policy == CoalescePort && q.sz > 0 {
		// Scan the occupied ring region as at most two contiguous runs
		// (no per-element modulo): a fault storm offers events far
		// faster than the merger drains them, so this scan is the
		// storm's hot path. A hit rewrites the slot in place — the
		// queue position and everything behind it are untouched.
		end := q.head + q.sz
		wrap := 0
		if end > len(q.buf) {
			wrap = end - len(q.buf)
			end = len(q.buf)
		}
		for i := q.head; i < end; i++ {
			if q.buf[i].Port == e.Port {
				q.buf[i] = *e // newest state wins, queue position kept
				q.coalesced++
				return Coalesced
			}
		}
		for i := 0; i < wrap; i++ {
			if q.buf[i].Port == e.Port {
				q.buf[i] = *e
				q.coalesced++
				return Coalesced
			}
		}
	}
	out := Stored
	q.Reserve()
	if q.sz == len(q.buf) {
		if q.policy != DropOldest {
			q.drops++
			return Dropped
		}
		q.advanceHead()
		q.shed++
		out = StoredShed
	}
	tail := q.head + q.sz
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = *e
	q.sz++
	q.pushed++
	return out
}

// advanceHead drops the oldest entry from the ring. The index wraps by
// compare: head and head+sz never reach 2·len(buf), and a division per
// event is the dearest instruction on the merger's path.
func (q *Queue) advanceHead() {
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.sz--
}

// Pop is PopInto for a caller that wants the event by value.
func (q *Queue) Pop() (e Event, ok bool) {
	ok = q.PopInto(&e)
	return e, ok
}

// PopInto removes the oldest event, writing it to *dst. It reports false,
// leaving *dst untouched, when the queue is empty.
func (q *Queue) PopInto(dst *Event) bool {
	if q.sz == 0 {
		return false
	}
	*dst = q.buf[q.head]
	q.advanceHead()
	return true
}
