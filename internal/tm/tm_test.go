package tm

import (
	"testing"
	"testing/quick"

	"repro/internal/events"
	"repro/internal/packet"
)

func mkPkt(n int) *packet.Packet {
	return &packet.Packet{Data: make([]byte, n)}
}

func TestTMEnqueueDequeueEvents(t *testing.T) {
	var got []events.Event
	tmgr := New(Config{Ports: 2, QueueCapBytes: 1000})
	tmgr.OnEvent = func(e *events.Event) { got = append(got, *e) }

	if !tmgr.Enqueue(mkPkt(100), 1, 0, 0, 777, 10) {
		t.Fatal("enqueue refused")
	}
	if tmgr.PortBytes(1) != 100 || tmgr.totalByte != 100 {
		t.Errorf("bytes = %d/%d", tmgr.PortBytes(1), tmgr.totalByte)
	}
	pkt, ok := tmgr.Dequeue(1, 20)
	if !ok || pkt.Len() != 100 {
		t.Fatalf("dequeue = %v ok=%v", pkt, ok)
	}
	// Expect enqueue, dequeue, underflow (port drained to zero).
	if len(got) != 3 {
		t.Fatalf("events = %v, want 3", got)
	}
	if got[0].Kind != events.BufferEnqueue || got[0].FlowHash != 777 || got[0].PktLen != 100 {
		t.Errorf("enqueue event = %+v", got[0])
	}
	if got[1].Kind != events.BufferDequeue || got[1].Port != 1 {
		t.Errorf("dequeue event = %+v", got[1])
	}
	if got[2].Kind != events.BufferUnderflow {
		t.Errorf("third event = %v, want underflow", got[2].Kind)
	}
}

// TestTMMutedKindsKeepSequence: a muted kind is not delivered, but it
// still takes its sequence number, so the counter reads the same whatever
// the listener subscribes to.
func TestTMMutedKindsKeepSequence(t *testing.T) {
	run := func(muted uint32) (got []events.Event, seq uint64) {
		tmgr := New(Config{Ports: 1, QueueCapBytes: 1000})
		tmgr.OnEvent = func(e *events.Event) { got = append(got, *e) }
		tmgr.Muted = muted
		tmgr.Enqueue(mkPkt(100), 0, 0, 0, 1, 10)
		tmgr.Dequeue(0, 20) // dequeue, then underflow
		return got, tmgr.seq
	}
	all, seqAll := run(0)
	some, seqSome := run(1<<events.BufferDequeue | 1<<events.BufferUnderflow)
	none, seqNone := run(^uint32(0))
	if len(all) != 3 || len(some) != 1 || len(none) != 0 {
		t.Fatalf("delivered %d/%d/%d events, want 3/1/0", len(all), len(some), len(none))
	}
	if some[0] != all[0] {
		t.Errorf("unmuted event changed: %+v, want %+v", some[0], all[0])
	}
	if seqAll != 3 || seqSome != 3 || seqNone != 3 {
		t.Errorf("sequence counter = %d/%d/%d, want 3 whatever is muted", seqAll, seqSome, seqNone)
	}
}

// TestTMEventScratchNotAliased: OnEvent is handed a pointer to one scratch
// event per TM. A receiver that copies before it returns — what the
// merger's FIFO does — sees every event of an enqueue → dequeue call chain
// intact, even when the dequeue happens inside the enqueue's callback, and
// the tap costs no allocation.
func TestTMEventScratchNotAliased(t *testing.T) {
	var got []events.Event
	tmgr := New(Config{Ports: 1, QueueCapBytes: 1000})
	pkt := mkPkt(100)
	tmgr.OnEvent = func(e *events.Event) {
		got = append(got, *e)
		if e.Kind == events.BufferEnqueue {
			tmgr.Dequeue(0, 20) // overwrites *e with the dequeue, then the underflow
		}
	}
	tmgr.Enqueue(pkt, 0, 0, 0, 777, 10)
	want := []events.Event{
		{Kind: events.BufferEnqueue, Seq: 0, When: 10, PktLen: 100, FlowHash: 777},
		{Kind: events.BufferDequeue, Seq: 1, When: 20, PktLen: 100, FlowHash: 777},
		{Kind: events.BufferUnderflow, Seq: 2, When: 20},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	var kinds [events.NumKinds]int
	tmgr.OnEvent = func(e *events.Event) { kinds[e.Kind]++ }
	if n := testing.AllocsPerRun(1000, func() {
		tmgr.Enqueue(pkt, 0, 0, 0, 777, 10)
		tmgr.Dequeue(0, 20)
	}); n != 0 {
		t.Errorf("event tap allocates %v per enqueue+dequeue, want 0", n)
	}
	if kinds[events.BufferEnqueue] == 0 || kinds[events.BufferEnqueue] != kinds[events.BufferDequeue] {
		t.Errorf("tap saw %d enqueues, %d dequeues", kinds[events.BufferEnqueue], kinds[events.BufferDequeue])
	}
}

func TestTMOverflow(t *testing.T) {
	var got []events.Event
	tmgr := New(Config{Ports: 1, QueueCapBytes: 150})
	tmgr.OnEvent = func(e *events.Event) { got = append(got, *e) }
	if !tmgr.Enqueue(mkPkt(100), 0, 0, 0, 1, 0) {
		t.Fatal("first enqueue refused")
	}
	if tmgr.Enqueue(mkPkt(100), 0, 0, 0, 2, 0) {
		t.Fatal("overflow enqueue accepted")
	}
	_, _, drops, _ := tmgr.Stats()
	if drops != 1 {
		t.Errorf("drops = %d", drops)
	}
	last := got[len(got)-1]
	if last.Kind != events.BufferOverflow || last.FlowHash != 2 {
		t.Errorf("overflow event = %+v", last)
	}
	// The packet that was dropped must not affect occupancy.
	if tmgr.totalByte != 100 {
		t.Errorf("total = %d, want 100", tmgr.totalByte)
	}
}

func TestTMDequeueEmpty(t *testing.T) {
	tmgr := New(Config{Ports: 1})
	if _, ok := tmgr.Dequeue(0, 0); ok {
		t.Fatal("dequeue from empty port succeeded")
	}
}

func TestTMFIFOOrder(t *testing.T) {
	tmgr := New(Config{Ports: 1})
	for i := 0; i < 5; i++ {
		tmgr.Enqueue(mkPkt(60+i), 0, 0, 0, uint64(i), 0)
	}
	for i := 0; i < 5; i++ {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok || pkt.Len() != 60+i {
			t.Fatalf("fifo order broken at %d: len=%d", i, pkt.Len())
		}
	}
}

func TestTMQueueAccounting(t *testing.T) {
	tmgr := New(Config{Ports: 2})
	tmgr.Enqueue(mkPkt(100), 0, 0, 0, 0, 0)
	tmgr.Enqueue(mkPkt(50), 1, 0, 0, 0, 0)
	if n := tmgr.ports[0].items.Len(); tmgr.PortBytes(0) != 100 || n != 1 {
		t.Errorf("port 0 = %d bytes %d pkts", tmgr.PortBytes(0), n)
	}
	if tmgr.totalByte != 150 {
		t.Errorf("total = %d", tmgr.totalByte)
	}
	enq, deq, drops, peak := tmgr.Stats()
	if enq != 2 || deq != 0 || drops != 0 || peak != 150 {
		t.Errorf("stats = %d/%d/%d/%d", enq, deq, drops, peak)
	}
}

func TestTMConservationProperty(t *testing.T) {
	// Property: bytes in == bytes out + bytes buffered, under random
	// enqueue/dequeue interleavings.
	f := func(ops []uint8) bool {
		tmgr := New(Config{Ports: 1, QueueCapBytes: 400})
		in, out := 0, 0
		for _, op := range ops {
			if op%3 != 0 {
				n := 60 + int(op)
				if tmgr.Enqueue(mkPkt(n), 0, 0, 0, 0, 0) {
					in += n
				}
			} else if pkt, ok := tmgr.Dequeue(0, 0); ok {
				out += pkt.Len()
			}
		}
		return in == out+tmgr.totalByte
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
