package events

import (
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	for k := IngressPacket; k < Kind(NumKinds); k++ {
		s := k.String()
		if s == "" || s[0] == 'K' { // "Kind(n)" means unnamed
			t.Errorf("kind %d has bad name %q", k, s)
		}
	}
	if NumKinds != 13 {
		t.Errorf("NumKinds = %d, want 13 (Table 1 has thirteen events)", NumKinds)
	}
}

func TestIsPacketEvent(t *testing.T) {
	packetKinds := map[Kind]bool{
		IngressPacket: true, EgressPacket: true, RecirculatedPacket: true,
	}
	for k := IngressPacket; k < Kind(NumKinds); k++ {
		if got := k.IsPacketEvent(); got != packetKinds[k] {
			t.Errorf("%v.IsPacketEvent() = %v", k, got)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(BufferEnqueue, 4)
	for i := 0; i < 4; i++ {
		if !q.Push(Event{Seq: uint64(i)}) {
			t.Fatalf("push %d refused", i)
		}
	}
	if q.Push(Event{Seq: 99}) {
		t.Fatal("push into full queue succeeded")
	}
	if q.Drops() != 1 || q.Pushed() != 4 {
		t.Errorf("drops=%d pushed=%d", q.Drops(), q.Pushed())
	}
	for i := 0; i < 4; i++ {
		e, ok := q.Pop()
		if !ok || e.Seq != uint64(i) {
			t.Fatalf("pop %d = %v ok=%v", i, e.Seq, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(BufferDequeue, 3)
	seq := uint64(0)
	next := uint64(0)
	for round := 0; round < 10; round++ {
		for q.Len() < 3 {
			q.Push(Event{Seq: seq})
			seq++
		}
		for q.Len() > 1 {
			e, _ := q.Pop()
			if e.Seq != next {
				t.Fatalf("round %d: got %d, want %d", round, e.Seq, next)
			}
			next++
		}
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue(TimerExpiration, 2)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty")
	}
	q.Push(Event{Seq: 5})
	e, ok := q.Peek()
	if !ok || e.Seq != 5 {
		t.Fatalf("peek = %v", e)
	}
	if q.Len() != 1 {
		t.Fatal("peek consumed the event")
	}
}

func TestQueuePropertyCount(t *testing.T) {
	// Property: pushes - drops == pops + remaining.
	f := func(ops []bool) bool {
		q := NewQueue(UserEvent, 5)
		var pops uint64
		for i, push := range ops {
			if push {
				q.Push(Event{Seq: uint64(i)})
			} else if _, ok := q.Pop(); ok {
				pops++
			}
		}
		return q.Pushed() == pops+uint64(q.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: BufferOverflow, Port: 2, Queue: 1, PktLen: 64}
	if s := e.String(); s == "" {
		t.Error("empty event string")
	}
}

// TestQueueRingIsLazy pins the ring's lifetime: a new queue reports its
// configured capacity without holding a ring, the first stored event
// allocates the ring as a fallback, and a reserved queue never allocates
// afterwards.
func TestQueueRingIsLazy(t *testing.T) {
	q := NewQueue(BufferEnqueue, 8)
	if q.capacity != 8 || q.buf != nil {
		t.Fatalf("new queue: capacity %d, ring allocated = %v; want 8, false", q.capacity, q.buf != nil)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on an untouched queue returned an event")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on an untouched queue returned an event")
	}
	if q.buf != nil {
		t.Error("Pop and Peek on an untouched queue allocated the ring")
	}

	for i := 0; i < 10; i++ {
		q.Offer(Event{Kind: BufferEnqueue, Port: i})
	}
	if q.Len() != 8 || q.Drops() != 2 {
		t.Fatalf("after 10 offers into 8 slots: Len %d Drops %d", q.Len(), q.Drops())
	}
	for i := 0; i < 8; i++ {
		if ev, ok := q.Pop(); !ok || ev.Port != i {
			t.Fatalf("pop %d = %+v, %v", i, ev, ok)
		}
	}

	r := NewQueue(BufferDequeue, 512)
	r.Reserve()
	if n := testing.AllocsPerRun(100, func() {
		r.Offer(Event{Kind: BufferDequeue})
		r.Pop()
	}); n != 0 {
		t.Errorf("reserved queue allocates %v per offer/pop", n)
	}
}
