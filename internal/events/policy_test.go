package events

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCoalescePortMergesSamePort pins the coalescing push: a pending
// LinkStatusChange for a port absorbs later changes to the same port
// (newest state wins, queue position kept), while distinct ports queue
// separately.
func TestCoalescePortMergesSamePort(t *testing.T) {
	q := NewQueue(LinkStatusChange, 8)
	q.SetPolicy(CoalescePort)

	if out := q.Offer(Event{Port: 1, Up: false, Seq: 1}); out != Stored {
		t.Fatalf("first offer = %v, want Stored", out)
	}
	if out := q.Offer(Event{Port: 2, Up: false, Seq: 2}); out != Stored {
		t.Fatalf("distinct port = %v, want Stored", out)
	}
	// Flap port 1 twice more: both coalesce into the pending entry.
	if out := q.Offer(Event{Port: 1, Up: true, Seq: 3}); out != Coalesced {
		t.Fatalf("same-port offer = %v, want Coalesced", out)
	}
	if out := q.Offer(Event{Port: 1, Up: false, Seq: 4}); out != Coalesced {
		t.Fatalf("same-port offer = %v, want Coalesced", out)
	}

	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	if q.Pushed() != 2 || q.Coalesced() != 2 || q.Drops() != 0 {
		t.Errorf("pushed=%d coalesced=%d drops=%d, want 2/2/0",
			q.Pushed(), q.Coalesced(), q.Drops())
	}
	// Queue order preserved: port 1 (with the newest state) pops first.
	e, _ := q.Pop()
	if e.Port != 1 || e.Up || e.Seq != 4 {
		t.Errorf("first pop = %+v, want port 1 newest state (down, seq 4)", e)
	}
	e, _ = q.Pop()
	if e.Port != 2 {
		t.Errorf("second pop port = %d, want 2", e.Port)
	}
}

// TestCoalescePortFullFallsBackToDrop pins the full-queue behaviour:
// with no same-port entry pending, CoalescePort drops the newest.
func TestCoalescePortFullFallsBackToDrop(t *testing.T) {
	q := NewQueue(LinkStatusChange, 2)
	q.SetPolicy(CoalescePort)
	q.Offer(Event{Port: 0})
	q.Offer(Event{Port: 1})
	if out := q.Offer(Event{Port: 2}); out != Dropped {
		t.Fatalf("offer to full queue = %v, want Dropped", out)
	}
	// But a same-port event still coalesces even at capacity.
	if out := q.Offer(Event{Port: 1, Up: true}); out != Coalesced {
		t.Fatalf("same-port offer to full queue = %v, want Coalesced", out)
	}
	if q.Drops() != 1 || q.Coalesced() != 1 || q.Pushed() != 2 {
		t.Errorf("drops=%d coalesced=%d pushed=%d, want 1/1/2",
			q.Drops(), q.Coalesced(), q.Pushed())
	}
}

// TestDropOldestShedsHead pins priority shedding: a full DropOldest
// queue evicts its head to admit fresh events, counting each eviction.
func TestDropOldestShedsHead(t *testing.T) {
	q := NewQueue(BufferOverflow, 3)
	q.SetPolicy(DropOldest)
	for i := 0; i < 5; i++ {
		out := q.Offer(Event{Seq: uint64(i)})
		want := Stored
		if i >= 3 {
			want = StoredShed
		}
		if out != want {
			t.Fatalf("offer %d = %v, want %v", i, out, want)
		}
	}
	if q.Len() != 3 || q.Shed() != 2 || q.Drops() != 0 || q.Pushed() != 5 {
		t.Fatalf("len=%d shed=%d drops=%d pushed=%d, want 3/2/0/5",
			q.Len(), q.Shed(), q.Drops(), q.Pushed())
	}
	// The survivors are the newest three, in order.
	for want := uint64(2); want <= 4; want++ {
		e, ok := q.Pop()
		if !ok || e.Seq != want {
			t.Fatalf("pop = %v ok=%v, want seq %d", e.Seq, ok, want)
		}
	}
}

// TestOfferAccountingIdentity is the conservation property faults.Audit
// relies on: offered events partition exactly into pushed + coalesced +
// drops, and pushed events partition into popped + shed + queued, under
// every policy and an arbitrary push/pop interleaving.
func TestOfferAccountingIdentity(t *testing.T) {
	for _, pol := range []OverflowPolicy{DropNewest, DropOldest, CoalescePort} {
		f := func(ops []byte) bool {
			q := NewQueue(LinkStatusChange, 4)
			q.SetPolicy(pol)
			var offered, popped uint64
			for i, op := range ops {
				if op%3 == 0 {
					if _, ok := q.Pop(); ok {
						popped++
					}
				} else {
					offered++
					q.Offer(Event{Port: int(op % 5), Seq: uint64(i)})
				}
			}
			return offered == q.Pushed()+q.Coalesced()+q.Drops() &&
				q.Pushed() == popped+q.Shed()+uint64(q.Len())
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("policy %d: %v", pol, err)
		}
	}
}

// TestQueueByReferenceMatchesValue drives two queues through one seeded
// random offer/pop sequence under each overflow policy — one through
// Offer/Pop, one through OfferRef/PopInto — and requires the same outcome
// for every offer, the same event from every pop, and the same counters
// throughout. The by-reference caller scribbles over its event after each
// offer: the queue must have taken its copy by then.
func TestQueueByReferenceMatchesValue(t *testing.T) {
	for _, pol := range []OverflowPolicy{DropNewest, DropOldest, CoalescePort} {
		byVal, byRef := NewQueue(LinkStatusChange, 5), NewQueue(LinkStatusChange, 5)
		byVal.SetPolicy(pol)
		byRef.SetPolicy(pol)
		rng := rand.New(rand.NewSource(int64(pol) + 42))
		for step := 0; step < 4000; step++ {
			if rng.Intn(5) < 3 { // offers outrun pops: the ring wraps, fills and overflows
				e := Event{Kind: LinkStatusChange, Seq: uint64(step), Port: rng.Intn(7), Up: rng.Intn(2) == 0, Data: uint64(step)}
				want := byVal.Offer(e)
				scratch := e
				got := byRef.OfferRef(&scratch)
				scratch = Event{Port: -99, Data: ^uint64(0)}
				if got != want {
					t.Fatalf("policy %d step %d: OfferRef = %v, Offer = %v", pol, step, got, want)
				}
			} else {
				want, wantOK := byVal.Pop()
				got := Event{Data: 7} // PopInto must leave it alone when the queue is empty
				ok := byRef.PopInto(&got)
				if !wantOK {
					want = Event{Data: 7}
				}
				if ok != wantOK || got != want {
					t.Fatalf("policy %d step %d: PopInto = %+v ok=%v, Pop = %+v ok=%v", pol, step, got, ok, want, wantOK)
				}
			}
			if byRef.Len() != byVal.Len() || byRef.Drops() != byVal.Drops() ||
				byRef.Shed() != byVal.Shed() || byRef.Coalesced() != byVal.Coalesced() || byRef.Pushed() != byVal.Pushed() {
				t.Fatalf("policy %d step %d: counters diverge: by-ref len=%d drops=%d shed=%d coalesced=%d pushed=%d, by-value %d/%d/%d/%d/%d",
					pol, step, byRef.Len(), byRef.Drops(), byRef.Shed(), byRef.Coalesced(), byRef.Pushed(),
					byVal.Len(), byVal.Drops(), byVal.Shed(), byVal.Coalesced(), byVal.Pushed())
			}
		}
		if byVal.Drops()+byVal.Shed()+byVal.Coalesced() == 0 {
			t.Errorf("policy %d: the sequence never put the queue under pressure", pol)
		}
	}
}
