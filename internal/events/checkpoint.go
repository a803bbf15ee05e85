package events

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// snapEvent serializes one event record.
func snapEvent(e *checkpoint.Encoder, ev Event) {
	e.U8(uint8(ev.Kind))
	e.I64(int64(ev.When))
	e.U64(ev.Seq)
	e.Int(ev.Port)
	e.Int(ev.Queue)
	e.Int(ev.PktLen)
	e.U64(ev.FlowHash)
	e.Int(ev.TimerID)
	e.Bool(ev.Up)
	e.U64(ev.Data)
}

// restoreEvent reads one event record.
func restoreEvent(d *checkpoint.Decoder) Event {
	var ev Event
	ev.Kind = Kind(d.U8())
	ev.When = sim.Time(d.I64())
	ev.Seq = d.U64()
	ev.Port = d.Int()
	ev.Queue = d.Int()
	ev.PktLen = d.Int()
	ev.FlowHash = d.U64()
	ev.TimerID = d.Int()
	ev.Up = d.Bool()
	ev.Data = d.U64()
	return ev
}

// Snapshot serializes the queue: the occupied ring region in FIFO order
// plus the overflow counters. Capacity and policy come from construction
// and are checked on restore.
func (q *Queue) Snapshot(e *checkpoint.Encoder) {
	e.U32(uint32(q.capacity))
	e.U8(uint8(q.policy))
	e.U32(uint32(q.sz))
	for i := 0; i < q.sz; i++ {
		snapEvent(e, q.buf[(q.head+i)%len(q.buf)])
	}
	e.U64(q.drops)
	e.U64(q.pushed)
	e.U64(q.coalesced)
	e.U64(q.shed)
	e.Int(q.hwm)
}

// Restore loads a snapshot into an identically configured queue. Queued
// events land at head 0; FIFO order is preserved.
func (q *Queue) Restore(d *checkpoint.Decoder) {
	cap := int(d.U32())
	pol := OverflowPolicy(d.U8())
	if d.Err() != nil {
		return
	}
	if cap != q.capacity || pol != q.policy {
		d.Fail(fmt.Errorf("events: queue %v: snapshot cap=%d policy=%d, queue cap=%d policy=%d",
			q.kind, cap, pol, q.capacity, q.policy))
		return
	}
	sz := int(d.U32())
	if d.Err() != nil {
		return
	}
	if sz > q.capacity {
		d.Fail(fmt.Errorf("events: queue %v: snapshot holds %d events, capacity %d", q.kind, sz, q.capacity))
		return
	}
	if sz > 0 {
		q.Reserve()
	}
	q.head = 0
	q.sz = sz
	for i := 0; i < sz; i++ {
		q.buf[i] = restoreEvent(d)
	}
	q.drops = d.U64()
	q.pushed = d.U64()
	q.coalesced = d.U64()
	q.shed = d.U64()
	q.hwm = d.Int()
}
