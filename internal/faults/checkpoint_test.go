package faults

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// faultRig is h1 -- sw -- h2 with a Gilbert–Elliott loss stage plus a
// corruption stage on the h1-side link, driven by construction-scheduled
// sends so the resumed run replays the same traffic schedule.
type faultRig struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	sw     *core.Switch
	h1, h2 *netsim.Host
	eng    *Engine
}

func buildFaultRig(t testing.TB) *faultRig {
	t.Helper()
	r := &faultRig{sched: sim.NewScheduler()}
	r.net = netsim.New(r.sched)
	r.sw = core.New(core.Config{Name: "s"}, core.EventDriven(), r.sched)
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	r.sw.MustLoad(p)
	r.net.AddSwitch(r.sw)
	r.h1 = r.net.NewHost("h1", packet.IP4(1, 0, 0, 1))
	r.h2 = r.net.NewHost("h2", packet.IP4(1, 0, 0, 2))
	r.net.Attach(r.h1, r.sw, 0, sim.Microsecond)
	r.net.Attach(r.h2, r.sw, 1, 0)
	sch := &Schedule{Seed: 7, Specs: []Spec{
		{Kind: GELoss, Link: 0, PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0, LossBad: 1},
		{Kind: Corrupt, Link: 0, Prob: 0.05},
	}}
	r.eng = MustApply(r.net, sch, Options{})
	// Construction-replayed traffic: identical (at, seq) coordinates in
	// the original and the resumed build; DropFired removes the sends the
	// checkpointed run already executed.
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		r.sched.At(at, func() { r.h1.Send(frame(100)) })
	}
	return r
}

func (r *faultRig) checkpoint(c *checkpoint.Codec, clk *sim.ClockState) {
	c.I64((*int64)(&clk.Now))
	c.U64(&clk.Seq)
	c.U64(&clk.Fired)
	r.sw.Checkpoint(c)
	r.net.Checkpoint(c)
	r.eng.Checkpoint(c)
}

func (r *faultRig) snapshot() []byte {
	c := checkpoint.NewSaver()
	clk := r.sched.Clock()
	r.checkpoint(c, &clk)
	return c.Saved()
}

func (r *faultRig) restore(t testing.TB, buf []byte) {
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

// TestFaultsCheckpointResumeIdentical pins the injector's RNG stream
// position across checkpoint/restore: a resumed run must impair exactly
// the same frames as the uninterrupted run — same losses, same
// corruptions, same Gilbert–Elliott chain trajectory.
func TestFaultsCheckpointResumeIdentical(t *testing.T) {
	const half, full = 2500*sim.Microsecond + 3*sim.Microsecond, 20 * sim.Millisecond

	a := buildFaultRig(t)
	a.sched.Run(half)
	snap := a.snapshot()
	// The section bytes as PR 19 wrote them: a layout change must bump
	// checkpoint.FormatVersion, not slip through a two-way walk.
	if got, want := checkpoint.Digest(string(snap)), uint64(4234022512321573660); got != want || len(snap) != 2276 {
		t.Errorf("snapshot is %d bytes, digest %d; the pinned format is 2276 bytes, digest %d", len(snap), got, want)
	}
	a.sched.Run(full)

	b := buildFaultRig(t)
	b.restore(t, snap)
	b.sched.Run(full)

	for i := 0; i < len(a.eng.stats); i++ {
		if a.eng.Stats(i) != b.eng.Stats(i) {
			t.Errorf("spec %d stats diverge:\noriginal: %+v\nresumed:  %+v", i, a.eng.Stats(i), b.eng.Stats(i))
		}
	}
	if a.h2.RxPackets != b.h2.RxPackets || a.h2.RxBytes != b.h2.RxBytes {
		t.Errorf("h2 rx = %d/%dB, resumed %d/%dB", a.h2.RxPackets, a.h2.RxBytes, b.h2.RxPackets, b.h2.RxBytes)
	}
	if a.sw.Stats() != b.sw.Stats() {
		t.Errorf("switch stats diverge:\noriginal: %+v\nresumed:  %+v", a.sw.Stats(), b.sw.Stats())
	}
	st := a.eng.Stats(0)
	if st.Lost == 0 || a.eng.Stats(1).Corrupted == 0 {
		t.Fatalf("no impairments happened (lost=%d corrupted=%d); differential is vacuous", st.Lost, a.eng.Stats(1).Corrupted)
	}
	if r := Audit(a.net); !r.OK() {
		t.Fatal(r)
	}
	if r := Audit(b.net); !r.OK() {
		t.Fatal(r)
	}
}

// TestEngineSnapshotFidelity verifies an engine snapshot restored into a
// freshly applied engine re-encodes to the identical bytes, and that a
// spec-count mismatch is refused.
func TestEngineSnapshotFidelity(t *testing.T) {
	a := buildFaultRig(t)
	a.sched.Run(5 * sim.Millisecond)
	e := checkpoint.NewSaver()
	a.eng.Checkpoint(e)
	first := e.Saved()

	b := buildFaultRig(t)
	d := checkpoint.NewLoader(first)
	b.eng.Checkpoint(d)
	if err := d.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	e2 := checkpoint.NewSaver()
	b.eng.Checkpoint(e2)
	if !bytes.Equal(first, e2.Saved()) {
		t.Error("snapshot -> restore -> snapshot is not byte-identical")
	}

	// Engine with a different spec count must refuse the snapshot.
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	sw := core.New(core.Config{Name: "x"}, core.EventDriven(), sched)
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	sw.MustLoad(p)
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(2, 0, 0, 1))
	net.Attach(h1, sw, 0, 0)
	one := MustApply(net, &Schedule{Seed: 1, Specs: []Spec{
		{Kind: Corrupt, Link: 0, Prob: 0.1},
	}}, Options{})
	d2 := checkpoint.NewLoader(first)
	one.Checkpoint(d2)
	if d2.Err() == nil {
		t.Fatal("spec-count mismatch accepted")
	}
}

// TestFaultsCheckpointDamageSweep cuts the rig's snapshot (switch,
// network with impaired frames in flight, engine) short at every offset
// and overwrites every byte of it: each load ends in the codec's error or
// completes — no panic, no loop or allocation sized by a damaged count.
func TestFaultsCheckpointDamageSweep(t *testing.T) {
	a := buildFaultRig(t)
	a.sched.Run(105 * sim.Microsecond)
	snap := a.snapshot()
	load := func(buf []byte) error {
		c := checkpoint.NewLoader(buf)
		var clk sim.ClockState
		buildFaultRig(t).checkpoint(c, &clk)
		return c.Err()
	}
	if err := checkpoint.DamageSweep(snap, load); err != nil {
		t.Fatal(err)
	}
}
