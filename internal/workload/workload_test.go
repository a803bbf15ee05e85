package workload

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestFixedAndUniformSizes(t *testing.T) {
	rng := sim.NewRNG(1)
	if FixedSize(200).Next(rng) != 200 {
		t.Error("FixedSize wrong")
	}
	u := UniformSize{Min: 100, Max: 200}
	for i := 0; i < 1000; i++ {
		n := u.Next(rng)
		if n < 100 || n > 200 {
			t.Fatalf("uniform out of range: %d", n)
		}
	}
	if (UniformSize{Min: 50, Max: 50}).Next(rng) != 50 {
		t.Error("degenerate uniform wrong")
	}
}

func TestIMixDistribution(t *testing.T) {
	rng := sim.NewRNG(2)
	counts := map[int]int{}
	for i := 0; i < 12000; i++ {
		counts[IMix{}.Next(rng)]++
	}
	if counts[60] < 6000 || counts[60] > 8000 {
		t.Errorf("60B count = %d, want ~7000", counts[60])
	}
	if counts[576] < 3000 || counts[576] > 5000 {
		t.Errorf("576B count = %d, want ~4000", counts[576])
	}
	if counts[1514] < 500 || counts[1514] > 1500 {
		t.Errorf("1514B count = %d, want ~1000", counts[1514])
	}
}

func TestFlowSetZipf(t *testing.T) {
	rng := sim.NewRNG(3)
	fs := NewFlowSet(100, 1.2, packet.IP4(10, 0, 0, 0))
	if fs.Len() != 100 {
		t.Fatalf("len = %d", fs.Len())
	}
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[fs.Pick(rng)]++
	}
	// Zipf: flow 0 should dominate flow 50 heavily.
	if counts[0] < 5*counts[50] {
		t.Errorf("zipf skew too weak: top=%d mid=%d", counts[0], counts[50])
	}
	// Uniform flow set: roughly equal.
	fu := NewFlowSet(10, 0, packet.IP4(10, 1, 0, 0))
	ucounts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		ucounts[fu.Pick(rng)]++
	}
	for i, c := range ucounts {
		if c < 3500 || c > 6500 {
			t.Errorf("uniform flow %d picked %d of 50000", i, c)
		}
	}
}

func TestCBRSpacingAndRate(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(4)
	var times []sim.Time
	g := NewGen(sched, rng, func(data []byte) {
		times = append(times, sched.Now())
		if len(data) != 60 {
			t.Fatalf("frame len = %d", len(data))
		}
	})
	// 60B+24B = 84B at 1 Gb/s = 672 ns per frame.
	g.StartCBR(CBRConfig{
		Flow: packet.Flow{Src: 1, Dst: 2, Proto: packet.ProtoUDP},
		Rate: sim.Gbps, Until: 10 * sim.Microsecond,
	})
	sched.Run(20 * sim.Microsecond)
	if len(times) < 14 || len(times) > 16 {
		t.Fatalf("sent %d frames in 10us at 1G, want ~15", len(times))
	}
	for i := 1; i < len(times); i++ {
		if gap := times[i] - times[i-1]; gap != 672*sim.Nanosecond {
			t.Fatalf("gap %d = %v, want 672ns", i, gap)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(5)
	n := 0
	g := NewGen(sched, rng, func([]byte) { n++ })
	fs := NewFlowSet(10, 0, packet.IP4(10, 0, 0, 0))
	g.StartPoisson(PoissonConfig{Flows: fs, MeanGap: sim.Microsecond, Until: 10 * sim.Millisecond})
	sched.Run(11 * sim.Millisecond)
	// Expect ~10000 arrivals; allow 5% slack.
	if n < 9500 || n > 10500 {
		t.Errorf("poisson sent %d, want ~10000", n)
	}
}

func TestBurst(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(6)
	var times []sim.Time
	g := NewGen(sched, rng, func([]byte) { times = append(times, sched.Now()) })
	g.ScheduleBurst(BurstConfig{
		Flow:    packet.Flow{Src: 1, Dst: 2, Proto: packet.ProtoUDP},
		Count:   5,
		Spacing: 10 * sim.Nanosecond,
		At:      sim.Microsecond,
	})
	sched.Run(sim.Millisecond)
	if len(times) != 5 {
		t.Fatalf("burst sent %d", len(times))
	}
	if times[0] != sim.Microsecond || times[4] != sim.Microsecond+40*sim.Nanosecond {
		t.Errorf("burst timing wrong: %v", times)
	}
}

func TestSaturateLoad(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(7)
	bytes := uint64(0)
	g := NewGen(sched, rng, func(d []byte) { bytes += uint64(len(d)) + 24 })
	g.StartSaturate(SaturateConfig{
		Flow: packet.Flow{Src: 1, Dst: 2, Proto: packet.ProtoUDP},
		Rate: 10 * sim.Gbps, Load: 1.0, Until: 100 * sim.Microsecond,
	})
	sched.Run(sim.Millisecond)
	// 10 Gb/s for 100us = 125000 bytes of wire time.
	if bytes < 124000 || bytes > 126000 {
		t.Errorf("saturate sent %d wire bytes, want ~125000", bytes)
	}
}

func TestGenStop(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(8)
	n := 0
	g := NewGen(sched, rng, func([]byte) { n++ })
	g.StartCBR(CBRConfig{Flow: packet.Flow{Src: 1, Dst: 2, Proto: packet.ProtoUDP}, Rate: sim.Gbps})
	sched.Run(5 * sim.Microsecond)
	g.Stop()
	before := n
	sched.Run(50 * sim.Microsecond)
	if n != before {
		t.Errorf("generator kept sending after Stop: %d -> %d", before, n)
	}
	if g.SentPackets != uint64(n) {
		t.Errorf("SentPackets = %d, n = %d", g.SentPackets, n)
	}
}

// searchPick is the binary search that Pick's guide table replaces: the
// first index whose cdf value is at least u, or the last index.
func searchPick(fs *FlowSet, u float64) int {
	lo, hi := 0, len(fs.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if fs.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestPickMatchesBinarySearch holds the guide-table Pick to the binary
// search over random draws and at the edges where they could part: every
// cdf value, its float neighbours, ±1e-12 around it, 0 and the largest
// draw below 1.
func TestPickMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 500} {
		for _, alpha := range []float64{0, 1, 1.3} {
			fs := NewFlowSet(n, alpha, packet.IP4(10, 0, 0, 0))
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := fs.pick(u), searchPick(fs, u); got != want {
					t.Fatalf("n=%d alpha=%g: pick(%v) = %d, binary search %d", n, alpha, u, got, want)
				}
			}
			check(0)
			check(math.Nextafter(1, 0))
			for _, c := range fs.cdf {
				for _, u := range []float64{c - 1e-12, math.Nextafter(c, 0), c, math.Nextafter(c, 1), c + 1e-12} {
					check(u)
				}
			}
			rng := sim.NewRNG(uint64(n) + uint64(alpha*100))
			for i := 0; i < 1_000_000; i++ {
				check(rng.Float64())
			}
		}
	}
}

// BenchmarkFlowSetPick is one popularity draw from switch_events' flow
// set shape (500 flows, alpha 1).
func BenchmarkFlowSetPick(b *testing.B) {
	fs := NewFlowSet(500, 1, packet.IP4(10, 0, 0, 0))
	rng := sim.NewRNG(1)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += fs.Pick(rng)
	}
	_ = sum
}
