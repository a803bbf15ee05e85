// Package tm models the traffic manager of a programmable switch: per-port
// output queues with configurable capacity and scheduling discipline, a
// PIFO (Push-In-First-Out) queue for programmable scheduling, and — the
// part the paper cares about — event taps that announce buffer enqueue,
// dequeue, overflow, and underflow to the event-driven architecture.
package tm

import "container/heap"

// pifoEntry is one element of a PIFO: an opaque item with a rank. Lower
// ranks dequeue first; equal ranks dequeue in arrival order.
type pifoEntry struct {
	item any
	rank uint64
	seq  uint64
}

type pifoHeap []pifoEntry

func (h pifoHeap) Len() int { return len(h) }
func (h pifoHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h pifoHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pifoHeap) Push(x any)   { *h = append(*h, x.(pifoEntry)) }
func (h *pifoHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// PIFO is a Push-In-First-Out queue (Sivaraman et al., SIGCOMM 2016),
// the building block for programmable packet scheduling that the paper's
// Traffic Management application class combines with event-driven
// programming. Items are inserted with a rank computed by the data-plane
// program; the head is always the minimum-rank item.
type PIFO struct {
	h   pifoHeap
	seq uint64
	cap int
}

// NewPIFO returns a PIFO bounded to capacity items (0 = unbounded).
func NewPIFO(capacity int) *PIFO {
	return &PIFO{cap: capacity}
}

// Push inserts item with the given rank. It returns false when the PIFO
// is full.
func (p *PIFO) Push(item any, rank uint64) bool {
	if p.cap > 0 && len(p.h) >= p.cap {
		return false
	}
	heap.Push(&p.h, pifoEntry{item: item, rank: rank, seq: p.seq})
	p.seq++
	return true
}

// Pop removes and returns the minimum-rank item.
func (p *PIFO) Pop() (any, bool) {
	if len(p.h) == 0 {
		return nil, false
	}
	e := heap.Pop(&p.h).(pifoEntry)
	return e.item, true
}
