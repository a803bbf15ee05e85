package sim

// fifoCompactAt is the dead-prefix length at which a FIFO starts
// considering compaction. Any value yields the same queue contents; this
// one keeps a short standing backlog's backing array to a few hundred
// slots.
const fifoCompactAt = 64

// FIFO is a queue popped by head index: the one queue every staging point
// of the datapath uses (a switch's rx, recirculation, generator and
// conveyor queues, the TM's output queues). The backing array is reused
// once the queue empties and compacted once the dead prefix outweighs the
// live tail, so steady-state push/pop allocates nothing and a standing
// backlog cannot walk the array without bound; popped slots are zeroed so
// they never pin what they held. The zero FIFO is empty and ready to use.
type FIFO[T any] struct {
	q    []T
	head int
}

// Len returns the number of queued elements.
func (f *FIFO[T]) Len() int { return len(f.q) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) { f.q = append(f.q, v) }

// Peek returns the oldest element in place. The queue must not be empty,
// and the pointer is dead after the next Push or Pop.
func (f *FIFO[T]) Peek() *T { return &f.q[f.head] }

// Pop removes and returns the oldest element. The queue must not be empty.
//
// Compaction runs once the dead prefix is at least as long as the live
// tail, so the copy lands wholly inside the prefix and the stale originals
// can be cleared after it. The body is shaped to stay inside the inlining
// budget (cost 76 of 80): every packet is popped from four of these per
// hop, and out of line each is a call through the generic dictionary.
func (f *FIFO[T]) Pop() T {
	v := f.q[f.head]
	var zero T
	f.q[f.head] = zero
	f.head++
	if live := f.q[f.head:]; len(live) == 0 {
		f.q, f.head = f.q[:0], 0
	} else if f.head >= fifoCompactAt && f.head >= len(live) {
		f.q, f.head = f.q[:copy(f.q, live)], 0
		clear(live)
	}
	return v
}
