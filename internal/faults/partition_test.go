package faults

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stormChainFingerprint runs a 3-switch chain with a jittered flap storm
// on the first trunk and returns a digest of everything observable. With
// domains > 0 each switch gets its own partition domain and both trunks
// cross domain boundaries (30µs and 50µs), so the storm's unrolled
// transitions land on cross-domain links while adaptive batching is
// active. classic forces fixed-width windows (ignored when domains < 2).
// barriers receives the partition's barrier count when non-nil.
func stormChainFingerprint(t *testing.T, domains int, classic bool, barriers *uint64) string {
	t.Helper()
	var scheds [3]*sim.Scheduler
	var net *netsim.Network
	var part *sim.Partition
	if domains == 0 {
		s := sim.NewScheduler()
		scheds[0], scheds[1], scheds[2] = s, s, s
		net = netsim.New(s)
	} else {
		part = sim.NewPartition(domains)
		part.SetClassicWindows(classic)
		for i := range scheds {
			scheds[i] = part.Sched(i % domains)
		}
		net = netsim.NewPartitioned(part)
	}
	fwd := func() *pisa.Program {
		p := pisa.NewProgram("chain")
		p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
			ctx.EgressPort = ctx.Ev.Port ^ 1
		})
		return p
	}
	var sws [3]*core.Switch
	for i := range sws {
		sws[i] = core.New(core.Config{Name: fmt.Sprintf("s%d", i+1)}, core.EventDriven(), scheds[i])
		sws[i].MustLoad(fwd())
		net.AddSwitch(sws[i])
	}
	h1 := net.NewHost("h1", packet.IP4(10, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(10, 0, 0, 2))
	net.Attach(h1, sws[0], 0, 0)
	trunk := net.Connect(sws[0], 1, sws[1], 0, 30*sim.Microsecond)
	net.Connect(sws[1], 1, sws[2], 0, 50*sim.Microsecond)
	net.Attach(h2, sws[2], 1, 0)

	rng := sim.NewRNG(31)
	g1 := workload.NewGen(h1.Scheduler(), rng.Split(), h1.Send)
	g2 := workload.NewGen(h2.Scheduler(), rng.Split(), h2.Send)
	g1.StartCBR(workload.CBRConfig{
		Flow: packet.Flow{Src: h1.IP, Dst: h2.IP, SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoUDP},
		Size: workload.FixedSize(500), Rate: 300 * sim.Mbps,
	})
	g2.StartCBR(workload.CBRConfig{
		Flow: packet.Flow{Src: h2.IP, Dst: h1.IP, SrcPort: 2000, DstPort: 1000, Proto: packet.ProtoUDP},
		Size: workload.FixedSize(800), Rate: 500 * sim.Mbps,
	})

	eng := MustApply(net, &Schedule{Seed: 97, Specs: []Spec{{
		Kind: FlapStorm, Link: 1, Start: 200 * sim.Microsecond,
		Down: 40 * sim.Microsecond, Up: 120 * sim.Microsecond,
		Count: 30, Jitter: true,
	}}}, Options{})

	net.Run(10 * sim.Millisecond)

	if got := eng.Stats(0).Flaps; got != 30 {
		t.Fatalf("domains=%d classic=%v: flaps = %d, want 30", domains, classic, got)
	}
	if r := Audit(net); !r.OK() {
		t.Fatalf("domains=%d classic=%v: %v", domains, classic, r)
	}
	if barriers != nil && part != nil {
		*barriers = part.Barriers()
	}
	out := fmt.Sprintf("h1 rx=%d/%dB h2 rx=%d/%dB\n", h1.RxPackets, h1.RxBytes, h2.RxPackets, h2.RxBytes)
	for _, sw := range net.Switches() {
		st := sw.Stats()
		out += fmt.Sprintf("%s rx=%d tx=%d cycles=%d link=%d\n", sw.Name(), st.RxPackets, st.TxPackets,
			st.Cycles, st.EventsMerged[events.LinkStatusChange])
	}
	for i, l := range net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			out += fmt.Sprintf("link%d dir%d sent=%d delivered=%d inflight=%d\n",
				i, dir, c.Sent, c.Delivered, c.InFlight())
		}
	}
	out += fmt.Sprintf("trunk lostSend=%d lostFlight=%d\n",
		trunk.LostAtSend(), trunk.LostInFlight())
	return out
}

// TestFlapStormBatchedByteIdentical pins adaptive window batching under
// an active flap storm: the unrolled cross-domain link transitions and
// the frames they strand must be byte-identical across a plain
// scheduler, 1 and 3 domains, and classic vs adaptive windows — while
// the adaptive run still batches (strictly fewer barriers than classic).
func TestFlapStormBatchedByteIdentical(t *testing.T) {
	legacy := stormChainFingerprint(t, 0, false, nil)
	for _, domains := range []int{1, 3} {
		if got := stormChainFingerprint(t, domains, false, nil); got != legacy {
			t.Errorf("domains=%d diverges from single-scheduler run:\n--- legacy ---\n%s--- domains=%d ---\n%s",
				domains, legacy, domains, got)
		}
	}
	var adaptive, classic uint64
	if got := stormChainFingerprint(t, 3, true, &classic); got != legacy {
		t.Errorf("classic windows diverge:\n--- legacy ---\n%s--- classic ---\n%s", legacy, got)
	}
	if got := stormChainFingerprint(t, 3, false, &adaptive); got != legacy {
		t.Errorf("adaptive rerun diverges from legacy")
	}
	if adaptive >= classic {
		t.Errorf("storm run did not batch: adaptive %d barriers, classic %d", adaptive, classic)
	}
}
