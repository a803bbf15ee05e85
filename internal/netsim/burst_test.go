package netsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// burstDeliverRig is deliverRig's vectorized twin: each step pushes a
// whole burst of frames through host NIC serialization, the arrival
// FIFO on the first link, the switch's burst slot loop, and the second
// link's FIFO. NIC serialization (~18ns/frame at 100G) is much shorter
// than the 100ns propagation, so several frames are queued in the
// wireFIFO whenever it fires.
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

// TestNetsimBurstDeliverZeroAlloc asserts the vectorized delivery path —
// burst sends through pooled NIC transmissions, wireFIFO batched
// arrivals, the switch burst loop, and back out — performs zero heap
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

// impairedOrderRun drives the wire-order property workload once and
// returns the delivered frame sizes (in arrival order) plus a counter
// fingerprint. The workload sends bursts of 8 length-tagged frames every
// 20µs; for a middle window the h1-side link carries a deterministic
// impairment (drop every 5th frame, duplicate every 7th with enough
// extra delay to reorder it past later bursts, jitter every 3rd), so the
// run crosses FIFO→legacy→FIFO transitions: frames sent right after the
// impairment is removed still ride the per-frame path while delayed
// duplicates are in the air (the legacyPending guard), then the
// direction returns to batched delivery.
func impairedOrderRun(t *testing.T, cfg core.Config) (order []int, fp string, maxQueued int) {
	t.Helper()
	sched := sim.NewScheduler()
	net := New(sched)
	cfg.Name = "s"
	sw := core.New(cfg, core.EventDriven(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(10, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(10, 0, 0, 2))
	l := net.Attach(h1, sw, 0, 2*sim.Microsecond)
	net.Attach(h2, sw, 1, 100*sim.Nanosecond)

	h2.OnRecv = func(d []byte) { order = append(order, len(d)) }

	nimp := 0
	impair := func(data []byte) []Deliverable {
		nimp++
		switch {
		case nimp%5 == 0:
			return nil
		case nimp%7 == 0:
			return []Deliverable{
				{Data: data},
				{Data: append([]byte(nil), data...), ExtraDelay: 30 * sim.Microsecond},
			}
		case nimp%3 == 0:
			return []Deliverable{{Data: data, ExtraDelay: 200 * sim.Nanosecond}}
		default:
			return []Deliverable{{Data: data}}
		}
	}

	const bursts = 30
	for i := 0; i < bursts; i++ {
		i := i
		at := sim.Time(1+i*20) * sim.Microsecond
		sched.At(at, func() {
			for j := 0; j < 8; j++ {
				h1.Send(lenFrame(100 + i*8 + j))
			}
		})
		// Probe the arrival FIFO mid-propagation: all eight NIC
		// serializations (~26ns each) finish well inside the 2µs latency,
		// so outside the impairment window the FIFO holds the whole burst.
		sched.At(at+sim.Microsecond, func() {
			if q := l.fifo[0].q.Len(); q > maxQueued {
				maxQueued = q
			}
		})
	}
	// Impairment window covering bursts 10-19.
	sched.At(200*sim.Microsecond, func() { l.SetImpair(impair) })
	sched.At(400*sim.Microsecond, func() { l.SetImpair(nil) })
	sched.Run(sim.Millisecond)

	fp = fmt.Sprintf("rx=%d/%dB sent=%d delivered=%d dropped=%d dup=%d inflight=%d sw=%+v",
		h2.RxPackets, h2.RxBytes, l.Sent(), l.Delivered(), l.Dropped(), l.Duplicated(),
		l.InFlight(), sw.Stats())
	return order, fp, maxQueued
}

// TestBurstWireOrderUnderImpairments is the wire-order property pin: the
// batched arrival FIFO must deliver frames in exactly the wire-band
// (arrival time, directed link id, send seq) total order of the
// per-frame path, across impairment windows that force the link back and
// forth between the FIFO and legacy-flight paths. The delivered frame
// sequence and every counter must match a rebuild of the identical
// workload on a NoBurst switch.
func TestBurstWireOrderUnderImpairments(t *testing.T) {
	order, fp, maxQueued := impairedOrderRun(t, core.Config{})
	orderRef, fpRef, _ := impairedOrderRun(t, core.Config{NoBurst: true})

	if len(order) == 0 {
		t.Fatal("nothing delivered; property is vacuous")
	}
	if maxQueued < 4 {
		t.Fatalf("arrival FIFO peaked at %d queued frames; burst path not exercised", maxQueued)
	}
	if fp != fpRef {
		t.Errorf("counters diverge:\nburst:   %s\nnoburst: %s", fp, fpRef)
	}
	if len(order) != len(orderRef) {
		t.Fatalf("delivered %d frames with burst, %d without", len(order), len(orderRef))
	}
	for i := range order {
		if order[i] != orderRef[i] {
			t.Fatalf("delivery order diverges at %d: burst=%d noburst=%d", i, order[i], orderRef[i])
		}
	}
}

// fifoDepth sums the queued arrival-FIFO entries across a network's
// links, both directions.
func fifoDepth(n *Network) int {
	d := 0
	for _, l := range n.links {
		for dir := 0; dir < 2; dir++ {
			d += l.fifo[dir].q.Len()
		}
	}
	return d
}

// TestBurstCheckpointMidFIFO pins checkpoint coverage for in-flight
// bursts: the snapshot is cut while arrival FIFOs are non-empty, and the
// resumed run — including a resume into a run with bursting disabled,
// which reloads the same frames as per-frame flights with their original
// (arrival, link, seq) wire keys — must match the uninterrupted run on
// every observable.
func TestBurstCheckpointMidFIFO(t *testing.T) {
	const half, full = sim.Millisecond, 2500 * sim.Microsecond

	a := buildNetRig(t, true, core.Config{})
	a.sched.Run(half)
	if d := fifoDepth(a.net); d == 0 {
		t.Fatal("no frames queued in arrival FIFOs at the cut; mid-burst restore is vacuous")
	}
	snap := a.snapshot()
	a.sched.Run(full)
	want := a.fingerprint()

	b := buildNetRig(t, false, core.Config{})
	b.restore(t, snap)
	if d := fifoDepth(b.net); d == 0 {
		t.Fatal("restore rebuilt no arrival FIFO entries")
	}
	b.sched.Run(full)
	if got := b.fingerprint(); got != want {
		t.Errorf("mid-burst resume diverges:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}

	// Cross-mode resume: the same snapshot poured into a no-burst run.
	c := buildNetRig(t, false, core.Config{NoBurst: true})
	c.restore(t, snap)
	if d := fifoDepth(c.net); d != 0 {
		t.Errorf("no-burst restore left %d frames in arrival FIFOs; want per-frame flights", d)
	}
	c.sched.Run(full)
	if got := c.fingerprint(); got != want {
		t.Errorf("cross-mode resume diverges:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}
}

// TestLinkBatchingDerivedFromSwitches pins where a link's delivery mode
// comes from: the switches on its ends, not process state. Three groups
// of four frames each enter one link direction at a single instant; the
// link of a default switch fires the wire band once per same-instant
// group, the same link on a NoBurst switch once per frame, and both
// deliver in the same order.
func TestLinkBatchingDerivedFromSwitches(t *testing.T) {
	const groups, perGroup = 3, 4
	run := func(cfg core.Config) (order []int, fired uint64) {
		sched := sim.NewScheduler()
		net := New(sched)
		cfg.Name = "s"
		sw := core.New(cfg, core.EventDriven(), sched)
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
	batched, bFired := run(core.Config{})
	perFrame, pFired := run(core.Config{NoBurst: true})
	if bFired != groups {
		t.Errorf("default switch: %d wire firings, want one per group (%d)", bFired, groups)
	}
	if pFired != groups*perGroup {
		t.Errorf("NoBurst switch: %d wire firings, want one per frame (%d)", pFired, groups*perGroup)
	}
	if len(batched) != groups*perGroup || fmt.Sprint(batched) != fmt.Sprint(perFrame) {
		t.Errorf("delivery order differs:\nbatched:   %v\nper-frame: %v", batched, perFrame)
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

// TestTwoEnginesConcurrently runs two differently configured engines in
// one process at the same time — one chain on the burst datapath with
// the drain fast-forward, one on both reference paths — and requires
// equal digests. Under -race this is the proof that no engine mode lives
// in process-wide state.
func TestTwoEnginesConcurrently(t *testing.T) {
	var fast, ref string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fast = chainDigest(core.Config{}) }()
	go func() {
		defer wg.Done()
		ref = chainDigest(core.Config{NoBurst: true, NoDrainFastForward: true})
	}()
	wg.Wait()
	if fast == "" || fast != ref {
		t.Errorf("engines diverge:\n--- default ---\n%s--- reference paths ---\n%s", fast, ref)
	}
}
