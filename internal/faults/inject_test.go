package faults

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// testNet wires h1 -- sw -- h2 (event-driven switch forwarding 0->1,
// with a UserEvent handler so event storms are accepted). The h1-side
// link is link 0, the h2 side link 1.
func testNet(t *testing.T) (*sim.Scheduler, *netsim.Network, *netsim.Host, *netsim.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
	p := pisa.NewProgram("fwd")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	p.HandleFunc(events.UserEvent, func(ctx *pisa.Context) {})
	sw.MustLoad(p)
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(1, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(1, 0, 0, 2))
	net.Attach(h1, sw, 0, sim.Microsecond)
	net.Attach(h2, sw, 1, 0)
	return sched, net, h1, h2
}

func frame(n int) []byte {
	return packet.BuildFrame(packet.FrameSpec{
		Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
		},
		TotalLen: n,
	})
}

// flapTrace runs a jittered flap storm and records the (time, state)
// sequence the network observed.
func flapTrace(t *testing.T, seed uint64) string {
	t.Helper()
	sched, net, h1, _ := testNet(t)
	trace := ""
	net.OnLinkChange = func(l *netsim.Link, up bool) {
		trace += fmt.Sprintf("%v:%v;", sched.Now(), up)
	}
	sch := &Schedule{Seed: seed, Specs: []Spec{{
		Kind: FlapStorm, Link: 0, Start: sim.Millisecond,
		Down: 50 * sim.Microsecond, Up: 150 * sim.Microsecond,
		Count: 20, Jitter: true,
	}}}
	eng := MustApply(net, sch, Options{})
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 40 * sim.Microsecond
		sched.At(at, func() { h1.Send(frame(100)) })
	}
	sched.Run(20 * sim.Millisecond)
	if got := eng.Stats(0).Flaps; got != 20 {
		t.Fatalf("flaps = %d, want 20", got)
	}
	if r := Audit(net); !r.OK() {
		t.Fatal(r)
	}
	return trace
}

// TestFlapStormReplaysBitIdentically is the determinism contract: the
// same seed yields the exact same fault trace, and a different seed a
// different one (the storm is jittered, so traces are seed-sensitive).
func TestFlapStormReplaysBitIdentically(t *testing.T) {
	a := flapTrace(t, 42)
	b := flapTrace(t, 42)
	if a != b {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := flapTrace(t, 43); c == a {
		t.Error("different seed produced an identical jittered trace")
	}
}

// TestGELossDropsAndConserves pins the Gilbert–Elliott injector: a harsh
// bad state loses a visible fraction of frames, every loss is counted as
// an impairment drop, and the books still balance.
func TestGELossDropsAndConserves(t *testing.T) {
	sched, net, h1, h2 := testNet(t)
	sch := &Schedule{Seed: 7, Specs: []Spec{{
		Kind: GELoss, Link: 0,
		PGoodBad: 0.1, PBadGood: 0.3, LossGood: 0, LossBad: 1,
	}}}
	eng := MustApply(net, sch, Options{})
	const N = 500
	for i := 0; i < N; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		sched.At(at, func() { h1.Send(frame(100)) })
	}
	sched.Run(20 * sim.Millisecond)

	st := eng.Stats(0)
	l := net.Links()[0]
	if st.Frames != N {
		t.Errorf("stage saw %d frames, want %d", st.Frames, N)
	}
	if st.Lost == 0 || st.Lost == N {
		t.Errorf("lost = %d, want bursty partial loss", st.Lost)
	}
	if l.Dropped() != st.Lost {
		t.Errorf("link dropped %d != injector lost %d", l.Dropped(), st.Lost)
	}
	if h2.RxPackets != N-st.Lost {
		t.Errorf("h2 rx = %d, want %d", h2.RxPackets, N-st.Lost)
	}
	if r := Audit(net); !r.OK() {
		t.Fatal(r)
	}
}

// TestImpairmentChainComposes pins spec-order chaining on one link:
// duplicate then corrupt, with duplicates carrying their own bytes.
func TestImpairmentChainComposes(t *testing.T) {
	sched, net, h1, h2 := testNet(t)
	sch := &Schedule{Seed: 3, Specs: []Spec{
		{Kind: Duplicate, Link: 0, Prob: 1, Delay: sim.Microsecond},
		{Kind: Corrupt, Link: 0, Prob: 1},
	}}
	eng := MustApply(net, sch, Options{})

	var payloads [][]byte
	h2.OnRecv = func(d []byte) { payloads = append(payloads, append([]byte(nil), d...)) }
	h1.Send(frame(100))
	sched.Run(sim.Millisecond)

	if len(payloads) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(payloads))
	}
	dup, cor := eng.Stats(0), eng.Stats(1)
	if dup.Duplicated != 1 {
		t.Errorf("duplicated = %d, want 1", dup.Duplicated)
	}
	// The corrupt stage runs after duplication, so it sees both copies
	// and mutates each independently.
	if cor.Frames != 2 || cor.Corrupted != 2 {
		t.Errorf("corrupt stage frames=%d corrupted=%d, want 2/2", cor.Frames, cor.Corrupted)
	}
	if string(payloads[0]) == string(payloads[1]) {
		t.Error("independent corruption produced identical copies (aliasing?)")
	}
	l := net.Links()[0]
	if l.Duplicated() != 1 || l.Sent() != 1 || l.Delivered() != 2 {
		t.Errorf("link sent=%d dup=%d delivered=%d, want 1/1/2", l.Sent(), l.Duplicated(), l.Delivered())
	}
	if r := Audit(net); !r.OK() {
		t.Fatal(r)
	}
}

// TestEventStormAccounting pins queue-pressure storms: a burst far past
// the FIFO depth is split exactly into merged + dropped (+ still queued),
// and the audit's queue identities hold under pressure.
func TestEventStormAccounting(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	sw := core.New(core.Config{Name: "s", EventQueueDepth: 8}, core.EventDriven(), sched)
	p := pisa.NewProgram("storms")
	p.HandleFunc(events.UserEvent, func(ctx *pisa.Context) {})
	sw.MustLoad(p)
	net.AddSwitch(sw)
	sch := &Schedule{Seed: 1, Specs: []Spec{{
		Kind: EventStorm, Switch: 0, Event: events.UserEvent,
		Burst: 64, Count: 3, Period: 100 * sim.Microsecond, Start: sim.Microsecond,
	}}}
	eng := MustApply(net, sch, Options{})
	sched.Run(10 * sim.Millisecond)

	st := eng.Stats(0)
	if st.EventsInjected+st.EventsRefused != 3*64 {
		t.Fatalf("injected %d + refused %d != 192", st.EventsInjected, st.EventsRefused)
	}
	if st.EventsRefused == 0 {
		t.Error("a 64-event burst should overflow the 8-deep FIFO")
	}
	sst := sw.Stats()
	if sst.EventsMerged[events.UserEvent]+sst.EventsDropped[events.UserEvent] != 192 {
		t.Errorf("merged %d + dropped %d != 192",
			sst.EventsMerged[events.UserEvent], sst.EventsDropped[events.UserEvent])
	}
	if hw := sw.EventQueue(events.UserEvent).HighWater(); hw != sw.Config().EventQueueDepth {
		t.Errorf("high water %d, want full FIFO %d", hw, sw.Config().EventQueueDepth)
	}
	if r := Audit(net); !r.OK() {
		t.Fatal(r)
	}
}

// TestHostPauseWindow pins the pause injector: sends inside [start, end)
// are held and flushed at end.
func TestHostPauseWindow(t *testing.T) {
	sched, net, h1, h2 := testNet(t)
	sch := &Schedule{Specs: []Spec{{
		Kind: HostPause, Host: 0,
		Start: sim.Millisecond, End: 2 * sim.Millisecond,
	}}}
	MustApply(net, sch, Options{})

	var arrivals []sim.Time
	h2.OnRecv = func([]byte) { arrivals = append(arrivals, sched.Now()) }
	for _, at := range []sim.Time{0, 1500 * sim.Microsecond, 2500 * sim.Microsecond} {
		sched.At(at, func() { h1.Send(frame(100)) })
	}
	sched.Run(10 * sim.Millisecond)

	if len(arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrivals))
	}
	if h1.HeldFrames != 1 {
		t.Errorf("held = %d, want 1", h1.HeldFrames)
	}
	// The mid-window frame arrives only after the pause lifts at 2ms.
	if arrivals[1] < 2*sim.Millisecond {
		t.Errorf("paused frame arrived at %v, before the window closed", arrivals[1])
	}
	if r := Audit(net); !r.OK() {
		t.Fatal(r)
	}
}

// TestCPDelayWindow pins the control-plane slowdown: latency and jitter
// scale by the factor inside the window and are restored after.
func TestCPDelayWindow(t *testing.T) {
	sched, net, _, _ := testNet(t)
	agent := controlplane.New(sched, sim.NewRNG(9))
	agent.Latency = 100 * sim.Microsecond
	agent.Jitter = 0
	sch := &Schedule{Specs: []Spec{{
		Kind: CPDelay, Agent: 0, Factor: 10,
		Start: sim.Millisecond, End: 2 * sim.Millisecond,
	}}}
	MustApply(net, sch, Options{Agents: []*controlplane.Agent{agent}})

	var inWindow, after sim.Time
	sched.At(1500*sim.Microsecond, func() {
		inWindow = agent.Do(1, nil) - sched.Now()
	})
	sched.At(3*sim.Millisecond, func() {
		after = agent.Do(1, nil) - sched.Now()
	})
	sched.Run(10 * sim.Millisecond)

	if inWindow != sim.Millisecond {
		t.Errorf("in-window op delay = %v, want 1ms (10x)", inWindow)
	}
	if after != 100*sim.Microsecond {
		t.Errorf("post-window op delay = %v, want restored 100us", after)
	}
}

// TestApplyRejectsBadTargets pins target-bounds checking against the
// actual network.
func TestApplyRejectsBadTargets(t *testing.T) {
	_, net, _, _ := testNet(t)
	cases := []Spec{
		{Kind: FlapStorm, Link: 9, Down: sim.Microsecond, Up: sim.Microsecond, Count: 1},
		{Kind: HostPause, Host: 9, End: sim.Millisecond},
		{Kind: EventStorm, Switch: 9, Event: events.UserEvent, Burst: 1, Count: 1},
		{Kind: CPDelay, Agent: 0, Factor: 2, End: sim.Millisecond},
	}
	for i, spec := range cases {
		if _, err := Apply(net, &Schedule{Specs: []Spec{spec}}, Options{}); err == nil {
			t.Errorf("case %d: Apply accepted out-of-range target", i)
		}
	}
}

// TestValidateRejects pins Validate's value checks, which Apply runs
// before arming anything: probabilities outside [0,1] (NaN included),
// unbounded or inconsistent windows, and kinds missing a required
// parameter are refused; boundary probabilities are legal.
func TestValidateRejects(t *testing.T) {
	flap := Spec{Kind: FlapStorm, Down: sim.Microsecond, Up: sim.Microsecond, Count: 1}
	bad := []Spec{
		{Kind: GELoss, PGoodBad: 1.5},
		{Kind: GELoss, PBadGood: -0.1},
		{Kind: GELoss, LossBad: 1.0001},
		{Kind: Corrupt, Prob: math.NaN()},
		{Kind: Reorder, Prob: 0.5},
		{Kind: FlapStorm, Down: sim.Microsecond, Up: sim.Microsecond},
		{Kind: HostPause},
		{Kind: EventStorm, Event: events.UserEvent, Burst: 1},
		{Kind: CPDelay, Factor: 0.5, End: sim.Millisecond},
	}
	late := flap
	late.Start, late.End = 2*sim.Millisecond, sim.Millisecond
	bad = append(bad, late)
	for i, spec := range bad {
		if err := (&Schedule{Specs: []Spec{flap, spec}}).Validate(); err == nil {
			t.Errorf("case %d (%v): invalid spec accepted", i, spec.Kind)
		}
	}
	ok := Spec{Kind: GELoss, PGoodBad: 0, PBadGood: 1, LossBad: 1}
	if err := (&Schedule{Specs: []Spec{flap, ok}}).Validate(); err != nil {
		t.Errorf("boundary probabilities rejected: %v", err)
	}
}

func TestSpecSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := specSeed(7, i)
		if seen[s] {
			t.Fatalf("specSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if specSeed(7, 0) == specSeed(8, 0) {
		t.Error("specSeed ignores the schedule seed")
	}
}

// TestAuditCatchesImbalance is the auditor's negative test: cooking a
// link counter must produce a violation.
func TestAuditCatchesImbalance(t *testing.T) {
	sched, net, h1, _ := testNet(t)
	h1.Send(frame(100))
	sched.Run(sim.Millisecond)
	if r := Audit(net); !r.OK() {
		t.Fatalf("clean run failed audit: %v", r)
	}
	net.Links()[0].Counters(0).Sent += 3
	r := Audit(net)
	if r.OK() {
		t.Fatal("audit missed a cooked Sent counter")
	}
	if len(r.Violations) != 1 {
		t.Errorf("violations = %v, want exactly the cooked link", r.Violations)
	}
}
