package tm

// Len returns the number of queued items.
func (p *PIFO) Len() int { return len(p.h) }

// QueueBytes returns the buffered bytes in one queue.
func (t *TM) QueueBytes(outPort, q int) int { return t.ports[outPort].queues[q].bytes }
