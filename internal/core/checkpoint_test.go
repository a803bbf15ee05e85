package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ckptRig mirrors the evsim scenario: a 4-port event-driven switch with
// the native forwarder program and one saturate generator per port. The
// construction path is identical for the original and the restored run;
// only whether the generators fire their first emission differs.
type ckptRig struct {
	sched *sim.Scheduler
	sw    *Switch
	gens  []*workload.Gen
}

func buildCkptRig(t testing.TB, start bool) *ckptRig {
	t.Helper()
	r := &ckptRig{sched: sim.NewScheduler()}
	r.sw = New(Config{Name: "ckpt", Ports: 4}, EventDriven(), r.sched)
	prog := pisa.NewProgram("fwd")
	occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
		events.BufferEnqueue, events.BufferDequeue))
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	r.sw.MustLoad(prog)
	rng := sim.NewRNG(1)
	for port := 0; port < 4; port++ {
		port := port
		g := workload.NewGen(r.sched, rng.Split(), func(d []byte) { r.sw.Inject(port, d) })
		sc := workload.SaturateConfig{
			Flow: packet.Flow{
				Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
				SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP,
			},
			Rate: 10 * sim.Gbps, Load: 0.9, Size: 60, Until: 2 * sim.Millisecond,
		}
		if start {
			g.StartSaturate(sc)
		} else {
			g.PrepareSaturate(sc)
		}
		r.gens = append(r.gens, g)
	}
	return r
}

// checkpoint walks the rig the way evsim's sections do: clock, switch,
// generators.
func (r *ckptRig) checkpoint(c *checkpoint.Codec, clk *sim.ClockState) {
	c.I64((*int64)(&clk.Now))
	c.U64(&clk.Seq)
	c.U64(&clk.Fired)
	r.sw.Checkpoint(c)
	for _, g := range r.gens {
		g.Checkpoint(c)
	}
}

func (r *ckptRig) snapshot() []byte {
	c := checkpoint.NewSaver()
	clk := r.sched.Clock()
	r.checkpoint(c, &clk)
	return c.Saved()
}

// restore loads a snapshot taken between Run calls: the cut line for
// DropFired is (now, seq counter) — every construction-replayed event
// ordered before it had already fired in the original run.
func (r *ckptRig) restore(t testing.TB, buf []byte) {
	t.Helper()
	c := checkpoint.NewLoader(buf)
	var clk sim.ClockState
	r.checkpoint(c, &clk)
	if err := c.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if c.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread", c.Remaining())
	}
	r.sched.DropFired(clk.Now, clk.Seq)
	r.sched.RestoreClock(clk)
}

// TestSwitchCheckpointResumeIdentical is the core-level differential
// pin: run to T/2, snapshot, pour the snapshot into an identically
// constructed switch, run both to T, and require identical stats,
// emission counters, and register state.
func TestSwitchCheckpointResumeIdentical(t *testing.T) {
	const half, full = sim.Millisecond, 2 * sim.Millisecond

	a := buildCkptRig(t, true)
	a.sched.Run(half)
	snap := a.snapshot()
	// The section bytes of format version 3: a layout change must bump
	// checkpoint.FormatVersion, not slip through a two-way walk.
	if got, want := checkpoint.Digest(string(snap)), uint64(13871410239958057475); got != want || len(snap) != 7604 {
		t.Errorf("snapshot is %d bytes, digest %d; the pinned format is 7604 bytes, digest %d", len(snap), got, want)
	}
	a.sched.Run(full + 500*sim.Microsecond)

	b := buildCkptRig(t, false)
	b.restore(t, snap)
	if b.sched.Now() != half {
		t.Fatalf("restored clock at %v, want %v", b.sched.Now(), half)
	}
	b.sched.Run(full + 500*sim.Microsecond)

	if a.sw.Stats() != b.sw.Stats() {
		t.Errorf("stats diverge:\noriginal: %+v\nresumed:  %+v", a.sw.Stats(), b.sw.Stats())
	}
	for i := range a.gens {
		if a.gens[i].SentPackets != b.gens[i].SentPackets || a.gens[i].SentBytes != b.gens[i].SentBytes {
			t.Errorf("gen %d: sent %d/%d bytes, resumed %d/%d",
				i, a.gens[i].SentPackets, a.gens[i].SentBytes, b.gens[i].SentPackets, b.gens[i].SentBytes)
		}
	}
	if a.sched.Clock() != b.sched.Clock() {
		t.Errorf("scheduler counters diverge: original %+v, resumed %+v", a.sched.Clock(), b.sched.Clock())
	}
	aocc := a.sw.prog.Register("occ")
	bocc := b.sw.prog.Register("occ")
	for i := uint32(0); i < 8; i++ {
		if aocc.True(i) != bocc.True(i) {
			t.Errorf("occ[%d] = %d, resumed %d", i, aocc.True(i), bocc.True(i))
		}
	}
	if a.sw.Stats().TxPackets == 0 {
		t.Fatal("scenario forwarded nothing; differential is vacuous")
	}
}

// TestSwitchRestoreZeroAlloc verifies restore rebuilds the pooled object
// graph without breaking the zero-allocation steady state: a restored
// switch's forward path must not allocate, exactly like a warm one
// (TestSwitchForwardZeroAlloc).
func TestSwitchRestoreZeroAlloc(t *testing.T) {
	a := buildCkptRig(t, true)
	a.sched.Run(sim.Millisecond) // warm pools and rings past steady state
	snap := a.snapshot()

	b := buildCkptRig(t, false)
	b.restore(t, snap)
	step := func() {
		b.sched.Run(b.sched.Now() + 10*sim.Microsecond)
	}
	step() // settle the first post-restore window
	before := b.sw.Stats().TxPackets
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("restored switch allocates %v per steady-state window, want 0", avg)
	}
	if b.sw.Stats().TxPackets == before {
		t.Fatal("nothing forwarded during the measurement")
	}
}

// TestRestoreRejectsInconsistentTxState snapshots a switch with one frame
// on port 1's wire and breaks the per-port (busy, has-packet,
// pending-completion) triple each way. A resumed run would nil-deref in
// txComplete or leave the port silent forever, so Restore must fail the
// decoder instead; the untouched snapshot must still load.
func TestRestoreRejectsInconsistentTxState(t *testing.T) {
	build := func() (*sim.Scheduler, *Switch) {
		sched := sim.NewScheduler()
		sw := New(Config{Name: "tx", Ports: 2}, EventDriven(), sched)
		sw.MustLoad(xconnect())
		return sched, sw
	}
	sched, sw := build()
	sw.Inject(0, frame(200, 1, 2))
	for sw.txPkt[1] == nil {
		if sched.Now() > sim.Microsecond {
			t.Fatal("frame never reached port 1's wire")
		}
		sched.Run(sched.Now() + sw.CycleTime())
	}
	snapshot := func() []byte {
		c := checkpoint.NewSaver()
		sw.Checkpoint(c)
		return c.Saved()
	}
	good := snapshot()

	// Port 1's record is linkUp, busy, has-packet, the packet, then the
	// completion's pending byte; the packet is the only one in the switch.
	pe := checkpoint.NewSaver()
	sw.pool.CheckpointPacket(pe, &sw.txPkt[1])
	rec := append([]byte{1, 1, 1}, pe.Saved()...)
	if bytes.Count(good, rec) != 1 {
		t.Fatalf("port 1's tx record occurs %d times in the snapshot, want 1", bytes.Count(good, rec))
	}
	at := bytes.Index(good, rec)
	patched := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] = 0
		return b
	}
	pend, pkt := sw.txPend, sw.txPkt[1]
	sw.txPend = nil
	noCompletion := snapshot()
	sw.txPend, sw.txPkt[1] = pend, nil
	noPacket := snapshot()
	sw.txPkt[1] = pkt

	for _, tc := range []struct {
		name string
		buf  []byte
		ok   bool
	}{
		{"consistent", good, true},
		{"busy byte cleared", patched(at + 1), false},
		{"pending byte cleared", patched(at + len(rec)), false},
		{"completion without its packet", noPacket, false},
		{"packet without its completion", noCompletion, false},
	} {
		_, fresh := build()
		c := checkpoint.NewLoader(tc.buf)
		fresh.Checkpoint(c)
		if got := c.Err() == nil; got != tc.ok {
			t.Errorf("%s: load error = %v, want ok=%v", tc.name, c.Err(), tc.ok)
		}
	}
}

// TestStatsVisitorCoversEveryCounter walks Stats by reflection: every
// uint64 it holds must be visited by each exactly once, so a counter added
// to the struct cannot be left out of the checkpoint.
func TestStatsVisitorCoversEveryCounter(t *testing.T) {
	var st Stats
	want := 0
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			want++
		case reflect.Array:
			want += f.Len()
		default:
			t.Fatalf("Stats.%s: kind %v is not a counter the visitor knows", v.Type().Field(i).Name, f.Kind())
		}
	}
	n := 0
	st.each(func(c *uint64) { *c++; n++ })
	if n != want {
		t.Errorf("each visited %d counters, Stats has %d", n, want)
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Uint64 {
			if f.Uint() != 1 {
				t.Errorf("Stats.%s visited %d times", v.Type().Field(i).Name, f.Uint())
			}
			continue
		}
		for k := 0; k < f.Len(); k++ {
			if f.Index(k).Uint() != 1 {
				t.Errorf("Stats.%s[%d] visited %d times", v.Type().Field(i).Name, k, f.Index(k).Uint())
			}
		}
	}
}

// TestSwitchCheckpointDamageSweep holds the load path to its contract for
// bytes that are not a snapshot: for every offset of a small valid one,
// the section cut short there and the section with that byte overwritten
// load cleanly or end in the codec's error — no panic, no allocation or
// loop sized by a damaged count. (Under PR 19's decoders offsets inside
// the pool depth and the dirty-FIFO count read as 2^40 packets and 2^32
// indices to fabricate.)
func TestSwitchCheckpointDamageSweep(t *testing.T) {
	a := buildCkptRig(t, true)
	a.sched.Run(20 * sim.Microsecond)
	snap := a.snapshot()
	load := func(buf []byte) error {
		c := checkpoint.NewLoader(buf)
		var clk sim.ClockState
		buildCkptRig(t, false).checkpoint(c, &clk)
		return c.Err()
	}
	if err := checkpoint.DamageSweep(snap, load); err != nil {
		t.Fatal(err)
	}
}
