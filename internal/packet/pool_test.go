package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
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
	if pl.News != 1 || pl.Reuses != 1 {
		t.Fatalf("News=%d Reuses=%d, want 1/1", pl.News, pl.Reuses)
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

// TestPoolCheckpointConservation loads a pool's section the way a switch
// does — holders first, each drawing its packet back out of the pool, the
// pool's own record last — and holds the load to the pool's conservation
// law: free + held = allocated. A free-list depth that breaks it (2^40 in
// the file ISSUE 20 was opened with, which PR 19's Restore set about
// fabricating) is refused before it sizes anything.
func TestPoolCheckpointConservation(t *testing.T) {
	pl := NewPool()
	held := []*Packet{pl.GetCopy([]byte("one"), 1), pl.GetCopy([]byte("two"), 2)}
	pl.Get().Release()
	save := checkpoint.NewSaver()
	for i := range held {
		pl.CheckpointPacket(save, &held[i])
	}
	pl.Checkpoint(save)
	snap := save.Saved()

	load := func(buf []byte) (*Pool, []*Packet, error) {
		fresh, got := NewPool(), make([]*Packet, len(held))
		c := checkpoint.NewLoader(buf)
		for i := range got {
			fresh.CheckpointPacket(c, &got[i])
		}
		fresh.Checkpoint(c)
		return fresh, got, c.Err()
	}
	fresh, got, err := load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[1].Data) != "two" || got[1].InPort != 2 || fresh.News != pl.News || fresh.Reuses != pl.Reuses || len(fresh.free) != 1 {
		t.Errorf("loaded %q port %d, News %d Reuses %d free %d", got[1].Data, got[1].InPort, fresh.News, fresh.Reuses, len(fresh.free))
	}
	if cap(fresh.free[0].Data) < poolWarmCap {
		t.Error("the fabricated free packet is not warm")
	}

	depth := len(snap) - 24 // depth, News, Reuses end the section
	for _, n := range []uint64{1 << 40, 2, 0, 1<<64 - 1} {
		damaged := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(damaged[depth:], n)
		if fresh, _, err := load(damaged); err == nil || len(fresh.free) != 0 {
			t.Errorf("free-list depth %d: err %v, %d packets fabricated", int64(n), err, len(fresh.free))
		}
	}
}
