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

func TestPIFOOrdering(t *testing.T) {
	p := NewPIFO(0)
	p.Push("c", 30)
	p.Push("a", 10)
	p.Push("b", 20)
	p.Push("a2", 10) // tie: after a
	want := []string{"a", "a2", "b", "c"}
	for _, w := range want {
		v, ok := p.Pop()
		if !ok || v.(string) != w {
			t.Fatalf("pop = %v ok=%v, want %q", v, ok, w)
		}
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("pop from empty PIFO")
	}
}

func TestPIFOCapacity(t *testing.T) {
	p := NewPIFO(2)
	if !p.Push(1, 1) || !p.Push(2, 2) {
		t.Fatal("pushes refused under capacity")
	}
	if p.Push(3, 3) {
		t.Fatal("push beyond capacity accepted")
	}
	if len(p.h) != 2 || p.h[0].rank != 1 {
		t.Errorf("head rank = %d of %d entries, want 1 of 2", p.h[0].rank, len(p.h))
	}
}

func TestPIFOHeapProperty(t *testing.T) {
	f := func(ranks []uint16) bool {
		p := NewPIFO(0)
		for _, r := range ranks {
			p.Push(nil, uint64(r))
		}
		prev := uint64(0)
		for len(p.h) > 0 {
			r := p.h[0].rank
			if r < prev {
				return false
			}
			prev = r
			p.Pop()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTMEnqueueDequeueEvents(t *testing.T) {
	var got []events.Event
	tmgr := New(Config{Ports: 2, QueuesPerPort: 1, QueueCapBytes: 1000})
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
// still takes its sequence number — the counter is checkpointed, so it
// must read the same whatever the listener subscribes to.
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

func TestTMStrictPriority(t *testing.T) {
	tmgr := New(Config{Ports: 1, QueuesPerPort: 3, Discipline: StrictPriority})
	tmgr.Enqueue(mkPkt(60), 0, 2, 0, 1, 0)
	tmgr.Enqueue(mkPkt(61), 0, 0, 0, 2, 0)
	tmgr.Enqueue(mkPkt(62), 0, 1, 0, 3, 0)
	wantLens := []int{61, 62, 60} // queue 0, then 1, then 2
	for i, w := range wantLens {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok || pkt.Len() != w {
			t.Fatalf("dequeue %d = len %d, want %d", i, pkt.Len(), w)
		}
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

func TestTMPIFODequeueByRank(t *testing.T) {
	tmgr := New(Config{Ports: 1, QueuesPerPort: 4, Discipline: PIFOSched})
	tmgr.Enqueue(mkPkt(100), 0, 0, 50, 1, 0) // rank 50
	tmgr.Enqueue(mkPkt(200), 0, 1, 10, 2, 0) // rank 10 -> first
	tmgr.Enqueue(mkPkt(300), 0, 2, 30, 3, 0) // rank 30
	want := []int{200, 300, 100}
	for i, w := range want {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok || pkt.Len() != w {
			t.Fatalf("pifo dequeue %d = %d, want %d", i, pkt.Len(), w)
		}
	}
}

func TestTMDRRFairness(t *testing.T) {
	// Two queues, one with big packets, one with small; DRR should give
	// roughly equal bytes over time.
	tmgr := New(Config{Ports: 1, QueuesPerPort: 2, Discipline: DRR, DRRQuantum: 500, QueueCapBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		tmgr.Enqueue(mkPkt(1000), 0, 0, 0, 1, 0) // 100 KB of big packets
	}
	for i := 0; i < 1000; i++ {
		tmgr.Enqueue(mkPkt(100), 0, 1, 0, 2, 0) // 100 KB of small packets
	}
	bytes := [2]int{}
	var deqEvents []events.Event
	tmgr.OnEvent = func(e *events.Event) {
		if e.Kind == events.BufferDequeue {
			deqEvents = append(deqEvents, *e)
		}
	}
	served := 0
	for served < 100000 {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok {
			break
		}
		served += pkt.Len()
	}
	for _, e := range deqEvents {
		bytes[e.Queue] += e.PktLen
	}
	if bytes[0] == 0 || bytes[1] == 0 {
		t.Fatalf("one queue starved: %v", bytes)
	}
	ratio := float64(bytes[0]) / float64(bytes[1])
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("DRR byte ratio = %.2f (%v), want ~1", ratio, bytes)
	}
}

func TestTMQueueAccounting(t *testing.T) {
	tmgr := New(Config{Ports: 2, QueuesPerPort: 2})
	tmgr.Enqueue(mkPkt(100), 0, 1, 0, 0, 0)
	tmgr.Enqueue(mkPkt(50), 1, 0, 0, 0, 0)
	if q := tmgr.ports[0].queues[1]; tmgr.QueueBytes(0, 1) != 100 || q.len() != 1 {
		t.Errorf("queue(0,1) = %d bytes %d pkts", tmgr.QueueBytes(0, 1), q.len())
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

func TestDisciplineStrings(t *testing.T) {
	for _, d := range []Discipline{FIFO, StrictPriority, DRR, PIFOSched} {
		if d.String() == "" {
			t.Errorf("discipline %d unnamed", d)
		}
	}
}
