package tm

import (
	"testing"

	"repro/internal/packet"
)

// Micro-benchmarks for traffic-manager operations.

func BenchmarkEnqueueDequeue(b *testing.B) {
	tmgr := New(Config{Ports: 4, QueueCapBytes: 1 << 30})
	pkt := &packet.Packet{Data: make([]byte, 300)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmgr.Enqueue(pkt, i&3, 0, 0, uint64(i), 0)
		tmgr.Dequeue(i&3, 0)
	}
}
