package state

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
)

// TestAggregatedCheckpointRoundTrip saves a register with a dirty backlog,
// loads it into a freshly built twin and requires the twin to save the
// same bytes and drain to the same values; then aims at the one count in
// the section that sizes a slice, the dirty FIFO's. PR 19's Restore read
// it, failed on the first index past the end of the section and went on
// appending up to 2^32-1 zeros.
func TestAggregatedCheckpointRoundTrip(t *testing.T) {
	build := func() *Aggregated { return NewAggregated("occ", 64, 1, "enq", "deq") }
	a := build()
	for cycle, idx := range []uint32{0x11, 0x22, 0x33} {
		a.Tick(uint64(cycle + 1)) // a bank takes one event-side access per cycle
		if !a.Defer(0, idx, int64(idx)) || (idx == 0x22 && !a.Defer(1, idx, -5)) {
			t.Fatalf("Defer(%#x) refused", idx)
		}
	}
	save := func(ag *Aggregated) []byte {
		c := checkpoint.NewSaver()
		ag.Checkpoint(c)
		return c.Saved()
	}
	snap := save(a)

	b := build()
	c := checkpoint.NewLoader(snap)
	if b.Checkpoint(c); c.Err() != nil || c.Remaining() != 0 {
		t.Fatalf("load: err %v, %d bytes unread", c.Err(), c.Remaining())
	}
	if !bytes.Equal(save(b), snap) {
		t.Error("save -> load -> save is not byte-identical")
	}
	a.Tick(4)
	b.Tick(4)
	drainIdle(a, 8)
	drainIdle(b, 8)
	if a.Main().Peek(0x11) != 0x11 {
		t.Fatalf("main[0x11] = %d after the drain, want 0x11: the comparison below is vacuous", a.Main().Peek(0x11))
	}
	for i := uint32(0); i < 64; i++ {
		if a.True(i) != b.True(i) || a.Main().Peek(i) != b.Main().Peek(i) {
			t.Errorf("index %#x: original %d (main %d), loaded %d (main %d)", i, a.True(i), a.Main().Peek(i), b.True(i), b.Main().Peek(i))
		}
	}

	// Bank 0's dirty FIFO: its count, then the three indices queued above.
	fifo := binary.LittleEndian.AppendUint32(nil, 3)
	for _, idx := range []uint32{0x11, 0x22, 0x33} {
		fifo = binary.LittleEndian.AppendUint32(fifo, idx)
	}
	if bytes.Count(snap, fifo) != 1 {
		t.Fatalf("bank 0's dirty FIFO occurs %d times in the snapshot, want 1", bytes.Count(snap, fifo))
	}
	damaged := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(damaged[bytes.Index(snap, fifo):], 1<<32-1)
	b = build()
	c = checkpoint.NewLoader(damaged)
	if b.Checkpoint(c); c.Err() == nil {
		t.Error("a dirty count of 2^32-1 loaded without an error")
	}
	if n := len(b.banks[0].dirty); n != 0 {
		t.Errorf("the refused count still sized the dirty FIFO: %d entries", n)
	}
}
