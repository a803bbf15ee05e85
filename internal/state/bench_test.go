package state

import "testing"

// Micro-benchmarks for the Figure 3 register machinery.

func BenchmarkAggregatedDeferDrain(b *testing.B) {
	ag := NewAggregated("r", 1024, 1, "enq", "deq")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i + 1)
		ag.Tick(c)
		ag.Defer(i&1, uint32(i&1023), int64(i&0xff))
		ag.EndCycle()
	}
}

// BenchmarkArrayAcquire is one read-modify-write transaction per cycle.
func BenchmarkArrayAcquire(b *testing.B) {
	a := NewArray(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint32(i & 1023)
		if a.TryAcquire(uint64(i + 1)) {
			a.Poke(idx, a.Peek(idx)+1)
		}
	}
}
