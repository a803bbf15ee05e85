package netsim

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// burstDeliverRig is deliverRig with bursts: each step pushes a whole
// burst of frames through host NIC serialization, one pooled wire-band
// flight per frame on the first link, the switch's pipeline slots, and
// the second link. NIC serialization (~18ns/frame at 100G) is much
// shorter than the 100ns propagation, so several flights are in the air
// on each link at once.
func burstDeliverRig(tb testing.TB) (step func(), rx *uint64) {
	const frames = 16
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	src := net.NewHost("src", packet.IP4(10, 0, 0, 1))
	dst := net.NewHost("dst", packet.IP4(10, 0, 0, 2))
	net.Attach(src, sw, 0, 100*sim.Nanosecond)
	net.Attach(dst, sw, 1, 100*sim.Nanosecond)

	data := testFrame(200)
	gap := (100 * sim.Gbps).ByteTime(len(data) + 24)
	step = func() {
		for i := 0; i < frames; i++ {
			src.Send(data)
		}
		sched.Run(sched.Now() + 10*frames*gap)
	}
	for i := 0; i < 300; i++ {
		step()
	}
	return step, &dst.RxPackets
}

// TestNetsimBurstDeliverZeroAlloc asserts the burst delivery path —
// burst sends through pooled NIC transmissions, pooled per-frame wire
// flights, the switch's slots, and back out — performs zero heap
// allocations in steady state.
func TestNetsimBurstDeliverZeroAlloc(t *testing.T) {
	step, rx := burstDeliverRig(t)
	before := *rx
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("burst delivery hot path allocates %v per burst, want 0", avg)
	}
	if *rx == before {
		t.Fatal("nothing delivered during the measurement")
	}
}

// lenFrame builds a frame whose total length doubles as its identity:
// the receiver recovers the send order from the delivered sizes.
func lenFrame(n int) []byte {
	return packet.BuildFrame(packet.FrameSpec{
		Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
		},
		TotalLen: n,
	})
}

// sentFrame is one frame entering the h1 link in the wire-order test:
// its size (the frame's identity), the instant it is put on the wire,
// and the extra delay of each copy the link carries (one zero entry when
// no impairment saw it, none when the impairment dropped it).
type sentFrame struct {
	size   int
	sentAt sim.Time
	extra  []sim.Time
}

// impairedOrderRun drives the wire-order workload once. It returns the
// frame sizes h2 received (in arrival order) and the order the wire band
// must produce.
//
// h1 sends bursts of 8 length-tagged frames every 20µs through its NIC;
// for a middle window its link carries a deterministic impairment (drop
// every 5th frame, duplicate every 7th with enough extra delay to reorder
// it past later bursts, jitter every 3rd). Three groups of four frames
// are also entered below h1's serializer, each group at one instant, one
// of them inside the impairment window. The expected order is computed
// independently of netsim's delivery code: each copy's arrival at the
// switch is its send instant (replaying the NIC's serialization clock
// for sent frames) plus the link latency plus the copy's ExtraDelay, and
// copies are ordered by (arrival, send index, copy index) — the wire
// band's (arrival, link, send seq) key on a single link direction. The
// switch forwards everything to h2 in arrival order.
func impairedOrderRun(t *testing.T) (order, want []int) {
	t.Helper()
	const latency = 2 * sim.Microsecond
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(10, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(10, 0, 0, 2))
	l := net.Attach(h1, sw, 0, latency)
	net.Attach(h2, sw, 1, 100*sim.Nanosecond)

	h2.OnRecv = func(d []byte) { order = append(order, len(d)) }

	var sent []sentFrame
	bySize := map[int]int{} // frame size -> index in sent
	record := func(size int, at sim.Time) {
		bySize[size] = len(sent)
		sent = append(sent, sentFrame{size: size, sentAt: at, extra: []sim.Time{0}})
	}

	nimp := 0
	impair := func(data []byte) []Deliverable {
		nimp++
		var outs []Deliverable
		switch {
		case nimp%5 == 0:
		case nimp%7 == 0:
			outs = []Deliverable{
				{Data: data},
				{Data: append([]byte(nil), data...), ExtraDelay: 30 * sim.Microsecond},
			}
		case nimp%3 == 0:
			outs = []Deliverable{{Data: data, ExtraDelay: 200 * sim.Nanosecond}}
		default:
			outs = []Deliverable{{Data: data}}
		}
		f := &sent[bySize[len(data)]]
		f.extra = f.extra[:0]
		for _, o := range outs {
			f.extra = append(f.extra, o.ExtraDelay)
		}
		return outs
	}

	// Bursts through the NIC. The sender replays the NIC's serialization
	// clock to know when each frame goes on the wire.
	const bursts = 30
	rate := sw.Config().LineRate
	var nicBusy sim.Time
	for i := 0; i < bursts; i++ {
		i := i
		sched.At(sim.Time(1+i*20)*sim.Microsecond, func() {
			for j := 0; j < 8; j++ {
				size := 100 + i*8 + j
				nicBusy = max(nicBusy, sched.Now()) + rate.ByteTime(size+core.WireOverhead)
				record(size, nicBusy)
				h1.Send(lenFrame(size))
			}
		})
	}
	// Groups entered below the serializer, at instants clear of every
	// burst's serialization, so record order is send order.
	const perGroup = 4
	for g, at := range []sim.Time{11, 251, 451} {
		g := g
		sched.At(at*sim.Microsecond, func() {
			for i := 0; i < perGroup; i++ {
				size := 400 + g*perGroup + i
				record(size, sched.Now())
				net.deliver(l, endpoint{host: h1}, lenFrame(size))
			}
		})
	}
	// Impairment window covering bursts 10-19 and the second group.
	sched.At(200*sim.Microsecond, func() { l.SetImpair(impair) })
	sched.At(400*sim.Microsecond, func() { l.SetImpair(nil) })
	sched.Run(sim.Millisecond)

	type wireCopy struct {
		at         sim.Time
		send, copy int
		size       int
	}
	var copies []wireCopy
	var sendOrder []int
	for i, f := range sent {
		for c, extra := range f.extra {
			copies = append(copies, wireCopy{at: f.sentAt + latency + extra, send: i, copy: c, size: f.size})
			sendOrder = append(sendOrder, f.size)
		}
	}
	sort.Slice(copies, func(i, j int) bool {
		a, b := copies[i], copies[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.send != b.send {
			return a.send < b.send
		}
		return a.copy < b.copy
	})
	for _, c := range copies {
		want = append(want, c.size)
	}
	if fmt.Sprint(want) == fmt.Sprint(sendOrder) || l.Dropped() == 0 || l.Duplicated() == 0 {
		t.Fatalf("impairment dropped %d, duplicated %d and reordered nothing else: the property is vacuous",
			l.Dropped(), l.Duplicated())
	}

	return order, want
}

// TestBurstWireOrderUnderImpairments is the wire-order property pin: h2
// must receive frames in exactly the (arrival, send seq) order computed
// from the send instants, the link latency and each copy's ExtraDelay,
// across an impairment window that drops, duplicates and reorders
// frames, and for frames entered at one instant.
func TestBurstWireOrderUnderImpairments(t *testing.T) {
	order, want := impairedOrderRun(t)
	if len(order) == 0 {
		t.Fatal("nothing delivered; property is vacuous")
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("delivery order differs from the wire-band expectation:\ngot:  %v\nwant: %v", order, want)
	}
}

// TestLinkBatchingDerivedFromSwitches pins that a link's delivery does
// not depend on the switches on its ends: three groups of four frames
// each enter one link direction at a single instant, and the link fires
// the wire band once per frame and delivers every frame in send order.
func TestLinkBatchingDerivedFromSwitches(t *testing.T) {
	const groups, perGroup = 3, 4
	run := func() (order []int, fired uint64) {
		sched := sim.NewScheduler()
		net := New(sched)
		sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
		sw.MustLoad(fwdTo(1))
		net.AddSwitch(sw)
		h := net.NewHost("h", packet.IP4(10, 0, 0, 1))
		l := net.Attach(h, sw, 0, sim.Microsecond)
		h.OnRecv = func(d []byte) { order = append(order, len(d)) }
		// Switch-to-host direction, entered below the port's serializer:
		// the only way several frames share an arrival instant.
		from := endpoint{sw: sw, port: 0}
		for g := 0; g < groups; g++ {
			g := g
			sched.At(sim.Time(1+10*g)*sim.Microsecond, func() {
				for i := 0; i < perGroup; i++ {
					net.deliver(l, from, lenFrame(100+g*perGroup+i))
				}
			})
		}
		sched.Run(sim.Millisecond)
		return order, sched.Fired() - groups // minus the injecting events
	}
	var want []int
	for i := 0; i < groups*perGroup; i++ {
		want = append(want, 100+i)
	}
	order, fired := run()
	if fired != groups*perGroup {
		t.Errorf("%d wire firings, want one per frame (%d)", fired, groups*perGroup)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("delivery order %v, want send order %v", order, want)
	}
}

// occPingPong is pingPong plus a per-port occupancy counter kept in an
// aggregated register by the enqueue/dequeue handlers, so idle cycles
// have deferred operations to drain.
func occPingPong() *pisa.Program {
	p := pingPong()
	occ := p.AddRegister(pisa.NewAggregatedRegister("occ", 8,
		events.BufferEnqueue, events.BufferDequeue))
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	return p
}

// chainDigest builds h0 - s0 - s1 - s2 - h1 on its own scheduler with
// every switch configured from cfg, offers bidirectional load, and
// fingerprints every host, switch and link counter.
func chainDigest(cfg core.Config) string {
	sched := sim.NewScheduler()
	net := New(sched)
	var sws [3]*core.Switch
	for i := range sws {
		cfg.Name = fmt.Sprintf("s%d", i)
		sws[i] = core.New(cfg, core.EventDriven(), sched)
		sws[i].MustLoad(occPingPong())
		net.AddSwitch(sws[i])
	}
	// Port 0 faces h0's side, port 1 h1's side; pingPong swaps them.
	net.Connect(sws[0], 1, sws[1], 0, sim.Microsecond)
	net.Connect(sws[1], 1, sws[2], 0, sim.Microsecond)
	h0 := net.NewHost("h0", packet.IP4(10, 0, 0, 1))
	h1 := net.NewHost("h1", packet.IP4(10, 0, 0, 2))
	net.Attach(h0, sws[0], 0, 100*sim.Nanosecond)
	net.Attach(h1, sws[2], 1, 100*sim.Nanosecond)

	rng := sim.NewRNG(11)
	for i, h := range []*Host{h0, h1} {
		peer := []*Host{h1, h0}[i]
		g := workload.NewGen(sched, rng.Split(), h.Send)
		g.StartSaturate(workload.SaturateConfig{
			Flow: packet.Flow{
				Src: h.IP, Dst: peer.IP,
				SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoUDP,
			},
			Rate: 10 * sim.Gbps, Load: 0.7, Size: 200 + 300*i, Until: 2 * sim.Millisecond,
		})
	}
	net.Run(3 * sim.Millisecond)

	out := fmt.Sprintf("h0 rx=%d/%dB h1 rx=%d/%dB\n", h0.RxPackets, h0.RxBytes, h1.RxPackets, h1.RxBytes)
	for _, sw := range sws {
		out += fmt.Sprintf("%s %+v\n", sw.Name(), sw.Stats())
	}
	for i, l := range net.Links() {
		for dir := 0; dir < 2; dir++ {
			out += fmt.Sprintf("link%d dir%d %+v\n", i, dir, l.Counters(dir))
		}
	}
	return out
}

// TestTwoEnginesConcurrently runs two engines in one process at the same
// time and requires each to reproduce the digest of a run made alone.
// Under -race this is the proof that no engine state is process-wide.
func TestTwoEnginesConcurrently(t *testing.T) {
	solo := chainDigest(core.Config{})
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = chainDigest(core.Config{}) }()
	}
	wg.Wait()
	for i, d := range got {
		if solo == "" || d != solo {
			t.Errorf("engine %d diverges from the solo run:\n--- concurrent ---\n%s--- solo ---\n%s", i, d, solo)
		}
	}
}
