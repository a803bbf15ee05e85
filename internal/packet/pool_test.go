package packet

import (
	"bytes"
	"testing"
)

func testFrame(n int) []byte {
	return BuildFrame(FrameSpec{Flow: Flow{
		Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), SrcPort: 5, DstPort: 6, Proto: ProtoUDP,
	}, TotalLen: n})
}

func TestPoolRecycles(t *testing.T) {
	pl := NewPool()
	data := testFrame(200)

	p := pl.GetCopy(data, 3)
	if !bytes.Equal(p.Data, data) {
		t.Fatal("GetCopy did not copy the frame bytes")
	}
	if p.InPort != 3 {
		t.Fatalf("InPort = %d, want 3", p.InPort)
	}
	if p.pool != pl {
		t.Fatal("pooled packet does not point at its pool")
	}
	// The copy must be private: mutating the source can't reach the packet.
	data[0] ^= 0xff
	if p.Data[0] == data[0] {
		t.Fatal("GetCopy aliases the caller's buffer")
	}
	data[0] ^= 0xff

	p.Release()
	q := pl.GetCopy(data[:60], -1)
	if q != p {
		t.Fatal("pool did not recycle the released packet")
	}
	if len(q.Data) != 60 || q.InPort != -1 || q.Empty || q.Gen || q.Recirc != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	pl := NewPool()
	p := pl.GetCopy(testFrame(64), 0)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	p.Release()
}

func TestUnpooledReleaseNoop(t *testing.T) {
	p := &Packet{Data: testFrame(64)}
	p.Release() // must not panic: literals mix freely with pooled packets
	p.Release()
	if p.pool != nil {
		t.Fatal("literal packet has a pool")
	}
}

// TestAppendFrameMatchesBuild pins the zero-copy serializers to the
// allocating originals byte for byte, including buffer reuse across
// different frame shapes (a stale longer frame must not leak into a
// shorter one).
func TestAppendFrameMatchesBuild(t *testing.T) {
	specs := []FrameSpec{
		{Flow: Flow{Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), SrcPort: 5, DstPort: 6, Proto: ProtoUDP}, TotalLen: 1500},
		{Flow: Flow{Src: IP4(10, 9, 0, 1), Dst: IP4(10, 3, 0, 2), SrcPort: 7, DstPort: 8, Proto: ProtoTCP}, TotalLen: 64, TCPFlags: 0x12, Seq: 99},
		{Flow: Flow{Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}},
	}
	var buf []byte
	for i, spec := range specs {
		want := BuildFrame(spec)
		buf = AppendFrame(buf[:0], spec)
		if !bytes.Equal(buf, want) {
			t.Errorf("spec %d: AppendFrame differs from BuildFrame", i)
		}
	}
	probe := &Probe{TorID: 4, Seq: 9, MaxUtil: 100}
	want := BuildControlFrame(Broadcast, MACFromUint64(4), probe)
	buf = AppendControlFrame(buf[:0], Broadcast, MACFromUint64(4), probe)
	if !bytes.Equal(buf, want) {
		t.Error("AppendControlFrame differs from BuildControlFrame")
	}
}

// TestPacketSerializeZeroAlloc asserts the steady-state serialization and
// pool paths allocate nothing once warmed.
func TestPacketSerializeZeroAlloc(t *testing.T) {
	spec := FrameSpec{Flow: Flow{
		Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), SrcPort: 5, DstPort: 6, Proto: ProtoUDP,
	}, TotalLen: 1500}
	buf := AppendFrame(nil, spec)
	if avg := testing.AllocsPerRun(200, func() {
		buf = AppendFrame(buf[:0], spec)
	}); avg != 0 {
		t.Errorf("AppendFrame into warm buffer allocates %v per op, want 0", avg)
	}

	pl := NewPool()
	pl.GetCopy(buf, 0).Release() // warm one slot with capacity
	if avg := testing.AllocsPerRun(200, func() {
		pl.GetCopy(buf, 0).Release()
	}); avg != 0 {
		t.Errorf("pool Get/Release cycle allocates %v per op, want 0", avg)
	}
}

// BenchmarkPacketSerializeInto measures frame serialization into a reused
// buffer — the pooled per-packet generation path (0 allocs/op).
func BenchmarkPacketSerializeInto(b *testing.B) {
	spec := FrameSpec{Flow: Flow{
		Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), SrcPort: 5, DstPort: 6, Proto: ProtoUDP,
	}, TotalLen: 200}
	buf := AppendFrame(nil, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], spec)
	}
}
