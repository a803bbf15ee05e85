package events

import (
	"fmt"

	"repro/internal/checkpoint"
)

// checkpoint walks one event record.
func (ev *Event) checkpoint(c *checkpoint.Codec) {
	c.U8((*uint8)(&ev.Kind))
	c.I64((*int64)(&ev.When))
	c.U64(&ev.Seq)
	c.Int(&ev.Port)
	c.Int(&ev.Queue)
	c.Int(&ev.PktLen)
	c.U64(&ev.FlowHash)
	c.Int(&ev.TimerID)
	c.Bool(&ev.Up)
	c.U64(&ev.Data)
}

// Checkpoint walks the queue: the occupied ring region in FIFO order
// plus the overflow counters. Capacity and policy come from construction
// and must match. Loaded events land at head 0; FIFO order is preserved.
func (q *Queue) Checkpoint(c *checkpoint.Codec) {
	what := "events: queue " + q.kind.String()
	c.FixedU32(what+": capacity", q.capacity)
	c.FixedU8(what+": overflow policy", uint8(q.policy))
	sz := c.Len32(q.sz)
	if c.Loading() {
		if sz > q.capacity {
			c.Fail(fmt.Errorf("%s: snapshot holds %d events, capacity %d", what, sz, q.capacity))
			return
		}
		if sz > 0 {
			q.Reserve()
		}
		q.head, q.sz = 0, sz
	}
	for i := 0; i < sz; i++ {
		q.buf[(q.head+i)%len(q.buf)].checkpoint(c)
	}
	c.U64(&q.drops)
	c.U64(&q.pushed)
	c.U64(&q.coalesced)
	c.U64(&q.shed)
	c.Int(&q.hwm)
}
