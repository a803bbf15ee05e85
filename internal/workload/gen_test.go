package workload

import (
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

var (
	udpFlow = packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 5, DstPort: 80, Proto: packet.ProtoUDP}
	tcpFlow = packet.Flow{Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 2), SrcPort: 6, DstPort: 443, Proto: packet.ProtoTCP}
)

// TestGenRestartAllocFree: a stream that ends and is started again
// reuses its record and its frame, so a restart cycle allocates nothing
// once the generator has run one.
func TestGenRestartAllocFree(t *testing.T) {
	fs := NewFlowSet(20, 1.1, packet.IP4(10, 2, 0, 0))
	cases := []struct {
		name  string
		start func(g *Gen, now, until sim.Time)
	}{
		{"cbr", func(g *Gen, _, until sim.Time) {
			g.StartCBR(CBRConfig{Flow: udpFlow, Size: FixedSize(256), Rate: sim.Gbps, Until: until})
		}},
		{"poisson", func(g *Gen, _, until sim.Time) {
			g.StartPoisson(PoissonConfig{Flows: fs, MeanGap: sim.Microsecond, Until: until})
		}},
		{"burst", func(g *Gen, now, _ sim.Time) {
			g.ScheduleBurst(BurstConfig{Flow: tcpFlow, Size: IMix{}, Count: 16, Spacing: 100 * sim.Nanosecond, At: now})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			g := NewGen(sched, sim.NewRNG(1), func([]byte) {})
			cycle := func() {
				now := sched.Now()
				until := now + 20*sim.Microsecond
				c.start(g, now, until)
				sched.Run(until + 10*sim.Microsecond)
			}
			for i := 0; i < 20; i++ { // every frame size and scheduler slice at its peak
				cycle()
			}
			sent := g.SentPackets
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Errorf("%v allocs per restart cycle, want 0", n)
			}
			if g.SentPackets == sent {
				t.Fatal("the measured cycles emitted nothing")
			}
		})
	}
}

// TestSaturateSetupAllocs pins what starting a saturate stream costs:
// the record and its frame slots are set-up allocations, and together
// with the scheduler, the generator and the first emission they stay
// within 8 objects (the closure-based generator took 7).
func TestSaturateSetupAllocs(t *testing.T) {
	rng := sim.NewRNG(1)
	n := testing.AllocsPerRun(50, func() {
		sched := sim.NewScheduler()
		g := NewGen(sched, rng, func([]byte) {})
		g.StartSaturate(SaturateConfig{Flow: udpFlow, Rate: 10 * sim.Gbps, Size: 60})
	})
	t.Logf("NewScheduler+NewGen+StartSaturate = %v allocs", n)
	if n > 8 {
		t.Errorf("NewScheduler+NewGen+StartSaturate = %v allocs, want <= 8", n)
	}
}

// TestFramesMatchAppendFrame: whatever a stream's frame cache hands the
// sink equals packet.AppendFrame of the spec the stream drew for that
// emission. The reference replays each stream's draws on a twin RNG.
func TestFramesMatchAppendFrame(t *testing.T) {
	const emissions = 10000
	const mean = sim.Microsecond
	const period = 50 * sim.Microsecond // saturate restart period
	fs := NewFlowSet(50, 1.1, packet.IP4(10, 2, 0, 0))
	cases := []struct {
		name  string
		start func(g *Gen, sched *sim.Scheduler)
		// want replays emission i's draws on rng and returns its spec.
		want func(rng *sim.RNG, i int, now sim.Time) packet.FrameSpec
	}{
		{"saturate", func(g *Gen, _ *sim.Scheduler) {
			g.StartSaturate(SaturateConfig{Flow: udpFlow, Rate: 10 * sim.Gbps, Size: 50})
		}, func(_ *sim.RNG, i int, _ sim.Time) packet.FrameSpec {
			fl := udpFlow
			fl.SrcPort = uint16(1024 + i%16)
			return packet.FrameSpec{Flow: fl, TotalLen: 50}
		}},
		// Restarted every period, alternating flows and sizes: each new
		// stream builds its own frames and continues the sub-flow cursor.
		{"saturate-restart", func(g *Gen, sched *sim.Scheduler) {
			for k := sim.Time(0); k < 100; k++ {
				cfg := SaturateConfig{Flow: udpFlow, Rate: 10 * sim.Gbps, Size: 60, Until: (k+1)*period - period/4}
				if k%2 == 1 {
					cfg.Flow, cfg.Size = tcpFlow, 200
				}
				sched.At(k*period, func() { g.StartSaturate(cfg) })
			}
		}, func(_ *sim.RNG, i int, now sim.Time) packet.FrameSpec {
			fl, size := udpFlow, 60
			if (now/period)%2 == 1 {
				fl, size = tcpFlow, 200
			}
			fl.SrcPort = uint16(1024 + i%16)
			return packet.FrameSpec{Flow: fl, TotalLen: size}
		}},
		{"cbr-fixed", func(g *Gen, _ *sim.Scheduler) {
			g.StartCBR(CBRConfig{Flow: tcpFlow, Size: FixedSize(128), Rate: 10 * sim.Gbps})
		}, func(*sim.RNG, int, sim.Time) packet.FrameSpec {
			return packet.FrameSpec{Flow: tcpFlow, TotalLen: 128}
		}},
		{"cbr-imix", func(g *Gen, _ *sim.Scheduler) {
			g.StartCBR(CBRConfig{Flow: udpFlow, Size: IMix{}, Rate: 10 * sim.Gbps})
		}, func(rng *sim.RNG, _ int, _ sim.Time) packet.FrameSpec {
			return packet.FrameSpec{Flow: udpFlow, TotalLen: IMix{}.Next(rng)}
		}},
		{"poisson", func(g *Gen, _ *sim.Scheduler) {
			g.StartPoisson(PoissonConfig{Flows: fs, MeanGap: mean})
		}, func(rng *sim.RNG, i int, _ sim.Time) packet.FrameSpec {
			if i == 0 {
				rng.ExpTime(mean) // the gap before the first frame
			}
			fl := fs.Flow(fs.Pick(rng))
			n := IMix{}.Next(rng)
			rng.ExpTime(mean) // the gap after this frame
			return packet.FrameSpec{Flow: fl, TotalLen: n}
		}},
		{"burst", func(g *Gen, _ *sim.Scheduler) {
			g.ScheduleBurst(BurstConfig{Flow: tcpFlow, Size: IMix{}, Count: emissions, At: sim.Microsecond})
		}, func(rng *sim.RNG, _ int, _ sim.Time) packet.FrameSpec {
			return packet.FrameSpec{Flow: tcpFlow, TotalLen: IMix{}.Next(rng)}
		}},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			sched := sim.NewScheduler()
			ref := sim.NewRNG(seed)
			var want []byte
			n := 0
			var g *Gen
			g = NewGen(sched, sim.NewRNG(seed), func(data []byte) {
				want = packet.AppendFrame(want[:0], c.want(ref, n, sched.Now()))
				if !bytes.Equal(data, want) {
					t.Fatalf("%s seed %d: emission %d is\n%x\nwant\n%x", c.name, seed, n, data, want)
				}
				if n++; n == emissions {
					g.Stop()
				}
			})
			c.start(g, sched)
			sched.Run(sim.Forever)
			if n != emissions {
				t.Fatalf("%s seed %d: %d emissions, want %d", c.name, seed, n, emissions)
			}
		}
	}
}

// TestFrameCacheMatchesAppendFrame drives one frame cache through 10⁵
// random flows and sizes — IMIX and sizes below the minimum frame, UDP,
// TCP and a zero protocol, so every header rewrite, protocol change and
// buffer growth happens — and holds each frame to AppendFrame's bytes.
func TestFrameCacheMatchesAppendFrame(t *testing.T) {
	fs := NewFlowSet(50, 1.1, packet.IP4(10, 2, 0, 0))
	rng := sim.NewRNG(9)
	var c frameCache
	var want []byte
	for i := 0; i < 100_000; i++ {
		fl := fs.Flow(fs.Pick(rng))
		switch rng.Intn(8) {
		case 0:
			fl = tcpFlow
		case 1:
			fl.Proto = 0
		}
		n := IMix{}.Next(rng)
		if rng.Intn(16) == 0 {
			n = rng.Intn(packet.MinFrameLen)
		}
		got := c.frame(fl, n)
		want = packet.AppendFrame(want[:0], packet.FrameSpec{Flow: fl, TotalLen: n})
		if !bytes.Equal(got, want) {
			t.Fatalf("draw %d (flow %v, size %d): frame is\n%x\nwant\n%x", i, fl, n, got, want)
		}
	}
}

// BenchmarkGenSaturate is the per-frame cost of a saturate stream: one
// op is one emission.
func BenchmarkGenSaturate(b *testing.B) {
	sched := sim.NewScheduler()
	n := 0
	var g *Gen
	g = NewGen(sched, sim.NewRNG(1), func([]byte) {
		if n++; n == b.N {
			g.Stop()
		}
	})
	g.StartSaturate(SaturateConfig{Flow: udpFlow, Rate: 10 * sim.Gbps, Size: 60})
	b.ReportAllocs()
	b.ResetTimer()
	sched.Run(sim.Forever)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
}

// BenchmarkGenCBRRestart is the fat-tree slot pattern: one op starts a
// CBR stream and runs it past its Until (16 frames).
func BenchmarkGenCBRRestart(b *testing.B) {
	sched := sim.NewScheduler()
	g := NewGen(sched, sim.NewRNG(1), func([]byte) {})
	rate := sim.Gbps
	span := 16 * rate.ByteTime(256+24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until := sched.Now() + span
		g.StartCBR(CBRConfig{Flow: udpFlow, Size: FixedSize(256), Rate: rate, Until: until})
		sched.Run(until + span)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(g.SentPackets), "ns/frame")
}
