package netsim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// netRig is the checkpoint differential topology: h1 -- s1 == s2 -- h2
// with bidirectional saturate load, so frames are mid-flight on the
// trunk and mid-serialization on the NICs when the snapshot is cut.
type netRig struct {
	sched *sim.Scheduler
	net   *Network
	sws   [2]*core.Switch
	hosts [2]*Host
	gens  [2]*workload.Gen
}

func buildNetRig(t testing.TB, start bool, cfg core.Config) *netRig {
	t.Helper()
	r := &netRig{sched: sim.NewScheduler()}
	r.net = New(r.sched)
	for i := range r.sws {
		cfg.Name = fmt.Sprintf("s%d", i+1)
		sw := core.New(cfg, core.EventDriven(), r.sched)
		sw.MustLoad(pingPong())
		r.net.AddSwitch(sw)
		r.sws[i] = sw
	}
	r.hosts[0] = r.net.NewHost("h1", packet.IP4(10, 0, 0, 1))
	r.hosts[1] = r.net.NewHost("h2", packet.IP4(10, 0, 0, 2))
	r.net.Attach(r.hosts[0], r.sws[0], 0, 100*sim.Nanosecond)
	r.net.Attach(r.hosts[1], r.sws[1], 0, 100*sim.Nanosecond)
	// Trunk latency exceeds the emission cadence, so frames are on the
	// wire at any snapshot cut.
	r.net.Connect(r.sws[0], 1, r.sws[1], 1, 5*sim.Microsecond)

	rng := sim.NewRNG(17)
	for i, h := range r.hosts {
		peer := r.hosts[1-i]
		g := workload.NewGen(h.Scheduler(), rng.Split(), h.Send)
		sc := workload.SaturateConfig{
			Flow: packet.Flow{
				Src: h.IP, Dst: peer.IP,
				SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoUDP,
			},
			Rate: 5 * sim.Gbps, Load: 0.8, Size: 800, Until: 2 * sim.Millisecond,
		}
		if start {
			g.StartSaturate(sc)
		} else {
			g.PrepareSaturate(sc)
		}
		r.gens[i] = g
	}
	return r
}

func (r *netRig) checkpoint(c *checkpoint.Codec, clk *sim.ClockState) {
	c.I64((*int64)(&clk.Now))
	c.U64(&clk.Seq)
	c.U64(&clk.Fired)
	for _, sw := range r.sws {
		sw.Checkpoint(c)
	}
	r.net.Checkpoint(c)
	for _, g := range r.gens {
		g.Checkpoint(c)
	}
}

func (r *netRig) snapshot() []byte {
	c := checkpoint.NewSaver()
	clk := r.sched.Clock()
	r.checkpoint(c, &clk)
	return c.Saved()
}

func (r *netRig) restore(t testing.TB, buf []byte) {
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

// fingerprint digests everything externally observable about the run.
func (r *netRig) fingerprint() string {
	out := ""
	for _, h := range r.hosts {
		out += fmt.Sprintf("%s rx=%d/%dB held=%d\n", h.Name, h.RxPackets, h.RxBytes, h.HeldFrames)
	}
	for _, sw := range r.sws {
		st := sw.Stats()
		out += fmt.Sprintf("%s %+v\n", sw.Name(), st)
	}
	for i, l := range r.net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			out += fmt.Sprintf("link%d dir%d sent=%d delivered=%d inflight=%d\n",
				i, dir, c.Sent, c.Delivered, c.InFlight())
		}
	}
	for i, g := range r.gens {
		out += fmt.Sprintf("gen%d sent=%d/%dB\n", i, g.SentPackets, g.SentBytes)
	}
	return out
}

// TestNetworkCheckpointResumeIdentical is the network-level differential
// pin: cut a snapshot mid-run with frames on the wire, pour it into an
// identically constructed topology, and require every observable counter
// — host rx, switch stats, per-direction link counters, generator
// emissions — to match the uninterrupted run exactly.
func TestNetworkCheckpointResumeIdentical(t *testing.T) {
	const half, full = sim.Millisecond, 2500 * sim.Microsecond

	a := buildNetRig(t, true, core.Config{})
	a.sched.Run(half)

	// The cut must exercise the wire band: at 5 Gbps over a 5 µs trunk
	// there are frames mid-flight at any instant.
	flights := 0
	for _, lf := range a.net.inFlight() {
		flights += len(lf[0]) + len(lf[1])
	}
	if flights == 0 {
		t.Fatal("no frames in flight at the snapshot cut; wire restore is vacuous")
	}
	snap := a.snapshot()
	// The section bytes as PR 19 wrote them: a layout change must bump
	// checkpoint.FormatVersion, not slip through a two-way walk.
	if got, want := checkpoint.Digest(string(snap)), uint64(9267853302193984936); got != want || len(snap) != 10560 {
		t.Errorf("snapshot is %d bytes, digest %d; the pinned format is 10560 bytes, digest %d", len(snap), got, want)
	}
	a.sched.Run(full)

	b := buildNetRig(t, false, core.Config{})
	b.restore(t, snap)
	if b.sched.Now() != half {
		t.Fatalf("restored clock at %v, want %v", b.sched.Now(), half)
	}
	b.sched.Run(full)

	if got, want := b.fingerprint(), a.fingerprint(); got != want {
		t.Errorf("resumed run diverges:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}
	if a.hosts[1].RxPackets == 0 {
		t.Fatal("nothing delivered; differential is vacuous")
	}
}

// TestNetworkRestoreRefusesTopologyMismatch pins the guard: a snapshot
// only loads into a network with the same link and host layout.
func TestNetworkRestoreRefusesTopologyMismatch(t *testing.T) {
	a := buildNetRig(t, true, core.Config{})
	a.sched.Run(100 * sim.Microsecond)
	e := checkpoint.NewSaver()
	a.net.Checkpoint(e)

	sched := sim.NewScheduler()
	small := New(sched)
	sw := core.New(core.Config{Name: "lone"}, core.EventDriven(), sched)
	sw.MustLoad(pingPong())
	small.AddSwitch(sw)
	h := small.NewHost("h", packet.IP4(10, 9, 0, 1))
	small.Attach(h, sw, 0, 0)

	d := checkpoint.NewLoader(e.Saved())
	small.Checkpoint(d)
	if d.Err() == nil {
		t.Fatal("restore into a different topology did not fail")
	}
}

// TestNetworkCheckpointDamageSweep cuts a small two-switch snapshot short
// at every offset and overwrites every byte of it: each load ends in the
// codec's error or completes — no panic, no loop or allocation sized by a
// damaged count.
func TestNetworkCheckpointDamageSweep(t *testing.T) {
	a := buildNetRig(t, true, core.Config{})
	a.sched.Run(20 * sim.Microsecond)
	snap := a.snapshot()
	load := func(buf []byte) error {
		c := checkpoint.NewLoader(buf)
		var clk sim.ClockState
		buildNetRig(t, false, core.Config{}).checkpoint(c, &clk)
		return c.Err()
	}
	if err := checkpoint.DamageSweep(snap, load); err != nil {
		t.Fatal(err)
	}
}

// TestNetworkCheckpointRefusesDamagedCounts aims at the three counts PR
// 19's Restore took from the file unchecked: a negative in-flight frame
// count sized a make (runtime panic), and the held-frame and NIC counts
// ran their loops after the decoder had failed.
func TestNetworkCheckpointRefusesDamagedCounts(t *testing.T) {
	a := buildNetRig(t, true, core.Config{})
	a.sched.Run(20 * sim.Microsecond)
	c := checkpoint.NewSaver()
	a.net.Checkpoint(c)
	snap := c.Saved()

	// Link 0, direction 0's frame count follows the link count, two
	// endpoint views and two directions of eight counters.
	const frames = 8 + 2 + 2*8*8
	if got, want := int64(binary.LittleEndian.Uint64(snap[frames:])), int64(len(a.net.inFlight()[a.net.links[0]][0])); got != want {
		t.Fatalf("offset %d holds %d, link 0 has %d frames in flight: the layout moved", frames, got, want)
	}
	// The section ends with the last host's held-frame count (none are
	// held), its NIC count and one record (at, seq, frame) per pending
	// serialization.
	last := a.net.hosts[len(a.net.hosts)-1]
	ntx := len(snap) - 8
	for _, tx := range last.txActive {
		ntx -= 8 + 8 + 4 + len(tx.buf)
	}
	if len(last.held) != 0 || binary.LittleEndian.Uint64(snap[ntx:]) != uint64(len(last.txActive)) {
		t.Fatalf("offset %d does not hold the last host's NIC count: the layout moved", ntx)
	}
	for _, tc := range []struct {
		name string
		off  int
		n    int64
	}{
		{"negative frame count", frames, -1},
		{"frame count past the section", frames, 1 << 40},
		{"held-frame count past the section", ntx - 8, 1 << 40},
		{"NIC count past the section", ntx, 1 << 40},
	} {
		damaged := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(damaged[tc.off:], uint64(tc.n))
		d := checkpoint.NewLoader(damaged)
		buildNetRig(t, false, core.Config{}).net.Checkpoint(d)
		if d.Err() == nil {
			t.Errorf("%s: loaded without an error", tc.name)
		}
	}
}
