package telemetry

import (
	"testing"

	"repro/internal/events"
)

// TestQueueAccountingIdentities drives small queues of every overflow
// policy through a deterministic mixed offer/pop schedule and checks the
// two conservation identities the events package documents — through the
// telemetry counters, fed each Offer's verdict, which must agree with the
// queue's own accounting:
//
//	offered = Pushed + Coalesced + Drops   (every offer lands once)
//	Pushed  = popped + Shed + Len          (every stored event leaves once)
func TestQueueAccountingIdentities(t *testing.T) {
	policies := []struct {
		name string
		pol  events.OverflowPolicy
	}{
		{"DropNewest", events.DropNewest},
		{"DropOldest", events.DropOldest},
		{"CoalescePort", events.CoalescePort},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			c := New(Options{})
			q := events.NewQueue(events.LinkStatusChange, 4)
			q.SetPolicy(pc.pol)
			qc := c.NewQueueCounters("q")

			// xorshift keeps the schedule deterministic yet mixed: bursts
			// of offers over a small port space (to exercise coalescing)
			// interleaved with pops.
			rng := uint64(0x9e3779b97f4a7c15)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			offered := uint64(0)
			popped := uint64(0)
			for i := 0; i < 10000; i++ {
				r := next()
				if r%3 == 0 {
					if _, ok := q.Pop(); ok {
						popped++
					}
					continue
				}
				offered++
				qc.Observe(q.Offer(events.Event{
					Kind: events.LinkStatusChange,
					Port: int(r>>8) % 6,
					Up:   r&1 == 0,
				}))
			}

			if got := qc.Offered(); got != offered {
				t.Errorf("telemetry offered = %d, want %d", got, offered)
			}
			// Telemetry counters must mirror the queue's own accounting
			// outcome for outcome.
			if qc.Stored.Value()+qc.Shed.Value() != q.Pushed() {
				t.Errorf("stored+shed = %d, queue Pushed = %d",
					qc.Stored.Value()+qc.Shed.Value(), q.Pushed())
			}
			if qc.Coalesced.Value() != q.Coalesced() {
				t.Errorf("coalesced = %d, queue Coalesced = %d", qc.Coalesced.Value(), q.Coalesced())
			}
			if qc.Dropped.Value() != q.Drops() {
				t.Errorf("dropped = %d, queue Drops = %d", qc.Dropped.Value(), q.Drops())
			}
			if qc.Shed.Value() != q.Shed() {
				t.Errorf("shed = %d, queue Shed = %d", qc.Shed.Value(), q.Shed())
			}
			// Identity 1: offered partitions exactly.
			if offered != q.Pushed()+q.Coalesced()+q.Drops() {
				t.Errorf("offered %d != Pushed %d + Coalesced %d + Drops %d",
					offered, q.Pushed(), q.Coalesced(), q.Drops())
			}
			// Identity 2: every pushed event was popped, evicted, or remains.
			if q.Pushed() != popped+q.Shed()+uint64(q.Len()) {
				t.Errorf("Pushed %d != popped %d + Shed %d + Len %d",
					q.Pushed(), popped, q.Shed(), q.Len())
			}
			// Policy-shape sanity: the schedule overflows every policy.
			switch pc.pol {
			case events.DropNewest:
				if qc.Dropped.Value() == 0 || qc.Shed.Value() != 0 || qc.Coalesced.Value() != 0 {
					t.Errorf("DropNewest shape off: %+v", qc)
				}
			case events.DropOldest:
				if qc.Shed.Value() == 0 || qc.Dropped.Value() != 0 || qc.Coalesced.Value() != 0 {
					t.Errorf("DropOldest shape off: %+v", qc)
				}
			case events.CoalescePort:
				if qc.Coalesced.Value() == 0 {
					t.Errorf("CoalescePort never coalesced: %+v", qc)
				}
			}
		})
	}
}
