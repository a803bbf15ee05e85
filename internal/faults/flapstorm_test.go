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

// stormChainFingerprint runs a 3-switch chain with a periodic flap storm
// on the first trunk and returns a digest of everything observable. With
// domains > 0 each switch gets its own partition domain and both trunks
// cross domain boundaries (30µs and 50µs), so the storm's scheduled
// transitions land on a cross-domain link while adaptive batching is
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

	downs := 0
	net.OnLinkChange = func(l *netsim.Link, up bool) {
		if l == trunk && !up {
			downs++
		}
	}
	FlapStorm(net, trunk, 200*sim.Microsecond, 160*sim.Microsecond, 40*sim.Microsecond, 30)

	net.Run(10 * sim.Millisecond)

	if downs != 30 {
		t.Fatalf("domains=%d classic=%v: flaps = %d, want 30", domains, classic, downs)
	}
	if domains > 1 && !trunk.Cross() {
		t.Fatalf("domains=%d: the stormed trunk does not cross domains", domains)
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
// an active flap storm: the scheduled cross-domain link transitions and
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

// TestFlapStormReplaysBitIdentically is the determinism contract: the
// storm replays exactly the transition list its arguments define — flap
// i goes down at start+i·period and up down later — as seen by the
// network's OnLinkChange hook and by the switch on each side of the
// stormed link (through the LinkStatusChange event each side raises).
// At 2 domains the link crosses the boundary, so each side flips in its
// own domain, and both must still see the same instants. Traffic crosses
// the link throughout, and the books must balance afterwards.
func TestFlapStormReplaysBitIdentically(t *testing.T) {
	const (
		start  = 100 * sim.Microsecond
		period = 50 * sim.Microsecond
		down   = 20 * sim.Microsecond
		count  = 4
	)
	var want string
	for i := 0; i < count; i++ {
		at := start + sim.Time(i)*period
		want += fmt.Sprintf("%d:false;%d:true;", at, at+down)
	}
	for _, domains := range []int{1, 2} {
		part := sim.NewPartition(domains)
		net := netsim.NewPartitioned(part)
		var side [2]string
		var sws [2]*core.Switch
		for i := range sws {
			i := i
			sws[i] = core.New(core.Config{Name: fmt.Sprintf("s%d", i)}, core.EventDriven(), part.Sched(i%domains))
			p := pisa.NewProgram("fwd")
			p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
				ctx.EgressPort = ctx.Ev.Port ^ 1
			})
			p.HandleFunc(events.LinkStatusChange, func(ctx *pisa.Context) {
				side[i] += fmt.Sprintf("%d:%v;", ctx.Ev.When, ctx.Ev.Up)
			})
			sws[i].MustLoad(p)
			net.AddSwitch(sws[i])
		}
		h1 := net.NewHost("h1", packet.IP4(10, 0, 0, 1))
		h2 := net.NewHost("h2", packet.IP4(10, 0, 0, 2))
		net.Attach(h1, sws[0], 0, 0)
		l := net.Connect(sws[0], 1, sws[1], 0, 3*sim.Microsecond)
		net.Attach(h2, sws[1], 1, 0)
		if l.Cross() != (domains == 2) {
			t.Fatalf("domains=%d: link cross = %v", domains, l.Cross())
		}
		hook := ""
		net.OnLinkChange = func(got *netsim.Link, up bool) {
			hook += fmt.Sprintf("%d:%v;", h1.Scheduler().Now(), up)
		}
		g := workload.NewGen(h1.Scheduler(), sim.NewRNG(5), h1.Send)
		g.StartCBR(workload.CBRConfig{
			Flow: packet.Flow{Src: h1.IP, Dst: h2.IP, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP},
			Size: workload.FixedSize(300), Rate: sim.Gbps, Until: 400 * sim.Microsecond,
		})

		FlapStorm(net, l, start, period, down, count)
		net.Run(sim.Millisecond)

		for name, got := range map[string]string{"OnLinkChange": hook, "side a": side[0], "side b": side[1]} {
			if got != want {
				t.Errorf("domains=%d %s saw %s\nwant %s", domains, name, got, want)
			}
		}
		if l.LostAtSend()+l.LostInFlight() == 0 || h2.RxPackets == 0 {
			t.Errorf("domains=%d: lost %d, delivered %d: the storm missed the traffic",
				domains, l.LostAtSend()+l.LostInFlight(), h2.RxPackets)
		}
		if r := Audit(net); !r.OK() {
			t.Errorf("domains=%d: %v", domains, r)
		}
	}
}

// TestValidateRejects pins FlapStorm's argument check: an outage that is
// not shorter than the period, a non-positive outage and a non-positive
// count are refused before anything is armed.
func TestValidateRejects(t *testing.T) {
	const us = sim.Microsecond
	for i, c := range []struct {
		period, down sim.Time
		count        int
	}{
		{10 * us, 10 * us, 1},
		{10 * us, 20 * us, 1},
		{10 * us, 0, 1},
		{10 * us, us, 0},
	} {
		sched := sim.NewScheduler()
		net := netsim.New(sched)
		sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
		net.AddSwitch(sw)
		l := net.Connect(sw, 0, sw, 1, us)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: period %v down %v count %d accepted", i, c.period, c.down, c.count)
				}
			}()
			FlapStorm(net, l, us, c.period, c.down, c.count)
		}()
		if sched.Pending() != 0 {
			t.Errorf("case %d: %d transitions armed before the refusal", i, sched.Pending())
		}
	}
}
