// Engine adapter: the only file of the benchmark that imports the simulator.
//
// Everything the benchmark needs from the engine is called here, on the
// default engine configuration, so a refactor of the engine has one file to
// keep compiling and a reader sees the whole dependency at a glance. Engine
// symbols used (and no others):
//
//	sim       NewScheduler NewRNG NewPartition Time Rate Gbps Mbps Nanosecond
//	          Microsecond Millisecond Second
//	          Scheduler.{Run,At,AtRunner,AfterRunner,NewLane,Now,Pending,Fired}
//	          Lane.ArmAt RNG.{Split,Intn}
//	          Partition.{Sched,OnBarrier,SetLookahead,Run,Windows,Barriers}
//	netsim    New NewPartitioned
//	          Network.{AddSwitch,Connect,NewHost,Attach,Run,Links,Hosts}
//	          Host.{Send,Scheduler,RxPackets,RxBytes} Link.{Counters,Cross}
//	          DirCounters.{Sent,Delivered,LostAtSend,LostInFlight,Dropped,InFlight}
//	core      New EventDriven WireOverhead
//	          Config{Name,Ports,QueuesPerPort,QueueCapBytes,Discipline,EventQueueDepth}
//	          Switch.{MustLoad,Inject,ConfigureTimer,AddGenerator,Stats,TM,Config,
//	          Scheduler} Stats (every field but the per-kind arrays' layout)
//	pisa      NewProgram NewAggregatedRegister PrefixMask ControlFunc Control.Apply
//	          Program.{HandleFunc,Handle,Handler,HandledKinds,AddRegister,Registers,
//	          TableNames,Table} Table.Stats
//	          Context.{Pkt,Ev,Flow,FlowOK,EgressPort}
//	          SharedRegister.{Read,Add,Write,True,Size,Metrics}
//	p4        Programs Compile Options{} Compiled.Instantiate
//	          Instance.{SetSwitchID,InstallEntry,Program}
//	apps      FatTreeRouter FatTreeConfig FatTreeHostIP FatTreeEdge FatTreeAgg
//	          FatTreeCore
//	events    Kind Kind.{String,IsPacketEvent} NumKinds IngressPacket
//	          GeneratedPacket BufferEnqueue BufferDequeue TimerExpiration
//	          Event NewQueue Queue.{Offer,Pop}
//	state     NewAggregated Aggregated.{Tick,Defer,EndCycle} AggMetrics (fields)
//	tm        New Config TM.{Enqueue,Dequeue,Stats}
//	packet    Flow Flow.{Index,Hash} FrameSpec AppendFrame FlowOf IP4 ProtoUDP
//	          Parser.Decode LayerType NewPool Pool.GetCopy Packet.{Len,Release,InPort}
//	workload  NewGen Sink Gen.{StartSaturate,StartCBR,StartPoisson,SentPackets}
//	          SaturateConfig CBRConfig PoissonConfig IMix FixedSize NewFlowSet
//	faults    Audit AuditSwitches Report.Violations
//
// Deliberately absent — differential oracles and knobs the roadmap intends to
// delete or re-home: NoBurst, ForceNoBurst, ForceSlowDrain,
// NoDrainFastForward, Options.Interpret, ForceInterpret, SetClassicWindows,
// BurstEngageDepth, PlanDomains, telemetry/self, Switch.OnSlot.
package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/tm"
	"repro/internal/workload"
)

type simTime = sim.Time

const (
	usec = sim.Microsecond
	msec = sim.Millisecond
)

// workloadSpec is one benchmark workload. Horizons are simulated time and
// frozen: they were calibrated once so an untraced trial takes about 3 s on
// the 2-CPU reference container.
type workloadSpec struct {
	name    string
	horizon simTime // generators run for this long
	tail    simTime // drain tail: everything in flight must land by horizon+tail
	setupK  int     // back-to-back builds per set-up sample (short builds are too noisy alone)
	twin    string  // workload whose digest must equal this one's
	build   func(e *env) *scenario
	traffic trafficFn
}

var workloads = []*workloadSpec{
	{name: "switch_linerate", horizon: 110 * msec, tail: msec, setupK: 1000,
		build: buildSwitchLinerate, traffic: linerateTraffic},
	{name: "switch_events", horizon: 700 * msec, tail: msec, setupK: 800,
		build: buildSwitchEvents, traffic: eventsTraffic},
	{name: "chain_up4", horizon: 580 * msec, tail: msec, setupK: 200,
		build: buildChain, traffic: chainTraffic},
	{name: "fattree_serial", horizon: 112 * msec, tail: msec, setupK: 12,
		build: buildFatTree(1), traffic: fatTreeTraffic},
	{name: "fattree_domains2", horizon: 112 * msec, tail: msec, setupK: 12, twin: "fattree_serial",
		build: buildFatTree(2), traffic: fatTreeTraffic},
}

// trafficFn creates a workload's generators. src(i) names the scheduler and
// sink of source endpoint i (a switch port or a host), so the same function
// drives the scenario and, with no-op sinks on a bare scheduler, the
// workload.gen_ns driver. All randomness comes from rng, which is seeded
// from -seed: the engine sees only the generated frames.
type trafficFn func(rng *sim.RNG, horizon simTime, src func(i int) (*sim.Scheduler, workload.Sink)) []*workload.Gen

// env is what a builder gets: the seed, the horizon, and — in the traced
// trial only — the tracer its wrappers record into.
type env struct {
	seed    uint64
	horizon simTime
	tr      *tracer

	captures []*capture // traced: what each sink sampled
	compileS float64    // host seconds spent in p4.Compile
}

// scenario is one built simulation, run once.
type scenario struct {
	run    func(until simTime)
	scheds []*sim.Scheduler
	part   *sim.Partition
	net    *netsim.Network // nil: a bare switch, delivery is the egress wire
	sws    []*core.Switch
	progs  []*pisa.Program
	gens   []*workload.Gen
}

// --- in-situ wrappers (traced trial only) ---------------------------------

// capture is what one sink samples for the layer drivers: every
// captureStride-th frame and, at the same instants, the depth of the
// scheduler the sink runs on. Sampling from the sink adds no scheduler
// events, so it works under a partition too and cannot move a digest.
type capture struct {
	sched   *sim.Scheduler
	seen    int
	frames  [][]byte
	pending []int
}

const (
	captureStride  = 97 // co-prime with IMIX's 12 and the 16 saturate sub-flows
	capturePerSite = 64
)

func (c *capture) offer(d []byte) {
	c.seen++
	if c.seen%captureStride != 0 {
		return
	}
	c.pending = append(c.pending, c.sched.Pending())
	if len(c.frames) < capturePerSite {
		c.frames = append(c.frames, append([]byte(nil), d...))
	}
}

// sink wraps the call that hands a generated frame to the engine. Untraced it
// is the bare call; traced it records workload.sink → child.
func (e *env) sink(child string, sched *sim.Scheduler, call func(d []byte)) workload.Sink {
	if e.tr == nil {
		return call
	}
	tr := e.tr
	outer, inner := tr.rec("workload.sink", "run"), tr.rec(child, "workload.sink")
	c := &capture{sched: sched}
	e.captures = append(e.captures, c)
	return func(d []byte) {
		t0 := tr.now()
		c.offer(d)
		t1 := tr.now()
		call(d)
		t2 := tr.now()
		inner.add(t2 - t1)
		outer.add(tr.now() - t0)
	}
}

func (e *env) injectSink(sw *core.Switch, port int) workload.Sink {
	return e.sink("core.inject", sw.Scheduler(), func(d []byte) { sw.Inject(port, d) })
}

func (e *env) sendSink(h *netsim.Host) workload.Sink {
	return e.sink("netsim.send", h.Scheduler(), func(d []byte) { h.Send(d) })
}

// load installs prog on sw. Traced, every handler is first replaced by a
// timing wrapper, through the program's own Handle.
func (e *env) load(sc *scenario, sw *core.Switch, prog *pisa.Program) {
	if e.tr != nil {
		tr := e.tr
		for _, k := range prog.HandledKinds() {
			h := prog.Handler(k)
			rec := tr.rec("pisa.handler."+k.String(), "run")
			prog.Handle(k, pisa.ControlFunc(func(ctx *pisa.Context) {
				t0 := tr.now()
				h.Apply(ctx)
				rec.add(tr.now() - t0)
			}))
		}
	}
	sw.MustLoad(prog)
	sc.sws = append(sc.sws, sw)
	sc.progs = append(sc.progs, prog)
}

// hookBarriers brackets the partition's barriers: one hook registered before
// netsim's mailbox exchange and one after it. netsim registers its hook in
// its first Run, so a zero-length Run comes between the two registrations.
func (e *env) hookBarriers(sc *scenario) {
	if e.tr == nil || sc.part == nil {
		return
	}
	tr := e.tr
	window := tr.rec("sim.window", "run")
	barrier := tr.rec("sim.barrier", "run")
	drain := tr.rec("netsim.mailbox_drain", "sim.barrier")
	var start, end int64
	sc.part.OnBarrier(func() {
		start = tr.now()
		if end != 0 {
			window.add(start - end)
		}
	})
	sc.net.Run(0)
	sc.part.OnBarrier(func() {
		end = tr.now()
		drain.add(end - start)
		barrier.add(end - start)
	})
}

// --- scenarios ----------------------------------------------------------------

// occProgram is the staleness/evsim program: forward to the paired port, keep
// per-port buffer occupancy in an aggregated register fed by enqueue and
// dequeue events, and read it in ingress every slot so that drains happen
// only on idle cycles (paper §4).
func occProgram(name string) (*pisa.Program, *pisa.SharedRegister) {
	prog := pisa.NewProgram(name)
	occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
		events.BufferEnqueue, events.BufferDequeue))
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		_ = occ.Read(ctx, uint32(ctx.Pkt.InPort^1))
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	return prog, occ
}

func bareSwitch(e *env, prog *pisa.Program, traffic trafficFn) (*scenario, *core.Switch) {
	sched := sim.NewScheduler()
	sc := &scenario{scheds: []*sim.Scheduler{sched}, run: func(until simTime) { sched.Run(until) }}
	sw := core.New(core.Config{Name: "sw"}, core.EventDriven(), sched)
	e.load(sc, sw, prog)
	sc.gens = traffic(sim.NewRNG(e.seed), e.horizon, func(port int) (*sim.Scheduler, workload.Sink) {
		return sched, e.injectSink(sw, port)
	})
	return sc, sw
}

func buildSwitchLinerate(e *env) *scenario {
	prog, _ := occProgram("linerate")
	sc, _ := bareSwitch(e, prog, linerateTraffic)
	return sc
}

// linerateTraffic saturates all four ports with minimum-size frames.
func linerateTraffic(rng *sim.RNG, horizon simTime, src func(int) (*sim.Scheduler, workload.Sink)) []*workload.Gen {
	var gens []*workload.Gen
	for port := 0; port < 4; port++ {
		sched, sink := src(port)
		g := workload.NewGen(sched, rng.Split(), sink)
		g.StartSaturate(workload.SaturateConfig{
			Flow: packet.Flow{
				Src: packet.IP4(10, byte(port), byte(rng.Intn(250)), 1), Dst: packet.IP4(10, byte(port^1), byte(rng.Intn(250)), 1),
				DstPort: uint16(1 + rng.Intn(60000)), Proto: packet.ProtoUDP,
			},
			Rate: 10 * sim.Gbps, Load: 1.0, Size: 60, Until: horizon,
		})
		gens = append(gens, g)
	}
	return gens
}

// Event-dense parameters of switch_events: two sweep timers and one probe
// stream, all at microsecond periods.
const (
	eventsTimer0  = 3 * usec
	eventsTimer1  = 7 * usec
	eventsProbe   = 11 * usec
	eventsWinSize = 2048
)

func buildSwitchEvents(e *env) *scenario {
	prog, _ := occProgram("events")
	// Per-flow byte window, swept cell by cell from the two timers (the
	// paper's §1 CMS-reset pattern). Packets and timers contend for its
	// single port; a timer that loses simply retries that cell next tick.
	win := prog.AddRegister(pisa.NewAggregatedRegister("win", eventsWinSize))
	forward := prog.Handler(events.IngressPacket)
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if ctx.FlowOK {
			win.Add(ctx, ctx.Flow.Index(eventsWinSize), int64(ctx.Pkt.Len()))
		}
		forward.Apply(ctx)
	})
	var cursor [2]uint32
	prog.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		id := ctx.Ev.TimerID & 1
		win.Write(ctx, cursor[id]*2+uint32(id), 0)
		cursor[id]++
	})
	prog.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = int(ctx.Flow.DstPort) & 3
	})
	sc, sw := bareSwitch(e, prog, eventsTraffic)
	must(sw.ConfigureTimer(0, eventsTimer0))
	must(sw.ConfigureTimer(1, eventsTimer1))
	var probe []byte
	must(sw.AddGenerator(eventsProbe, func(seq uint64) ([]byte, int) {
		if sw.Scheduler().Now() >= e.horizon {
			return nil, 0
		}
		probe = packet.AppendFrame(probe[:0], packet.FrameSpec{
			Flow: packet.Flow{
				Src: packet.IP4(10, 255, 0, 1), Dst: packet.IP4(10, 255, 0, 2),
				SrcPort: 7, DstPort: uint16(seq), Proto: packet.ProtoUDP,
			},
			TotalLen: 64,
		})
		return probe, -1
	}))
	return sc
}

// eventsTraffic offers ≈30 % load per port: Poisson arrivals over a Zipf flow
// set, IMIX sizes (mean 353 B + 24 B wire overhead → 1005 ns mean gap).
func eventsTraffic(rng *sim.RNG, horizon simTime, src func(int) (*sim.Scheduler, workload.Sink)) []*workload.Gen {
	var gens []*workload.Gen
	for port := 0; port < 4; port++ {
		sched, sink := src(port)
		flows := workload.NewFlowSet(500, 1.0, packet.IP4(10, byte(port), byte(rng.Intn(200)), 0))
		g := workload.NewGen(sched, rng.Split(), sink)
		g.StartPoisson(workload.PoissonConfig{
			Flows: flows, Size: workload.IMix{}, MeanGap: 1005 * sim.Nanosecond, Until: horizon,
		})
		gens = append(gens, g)
	}
	return gens
}

// chainPrograms are the compiled µP4 programs of chain_up4, upstream first.
var chainPrograms = []string{"router", "microburst", "heavyhitter"}

// buildChain wires h0 – sw0 – sw1 – sw2 – h1 (port 0 upstream, port 1
// downstream on every switch) with one µP4 program per switch.
func buildChain(e *env) *scenario {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	sc := &scenario{scheds: []*sim.Scheduler{sched}, net: net, run: net.Run}
	for i, name := range chainPrograms {
		t0 := time.Now()
		compiled, err := p4.Compile(p4.Programs[name])
		must(err)
		e.compileS += time.Since(t0).Seconds()
		inst := compiled.Instantiate(name, p4.Options{})
		inst.SetSwitchID(uint32(i + 1))
		sw := core.New(core.Config{Name: fmt.Sprintf("sw%d", i), Ports: 2}, core.EventDriven(), sched)
		switch name {
		case "router":
			must(inst.InstallEntry("ipv4_lpm", []uint64{uint64(packet.IP4(10, 9, 0, 0))},
				[]uint64{pisa.PrefixMask(16, 32)}, 16, "set_egress", 1))
			must(inst.InstallEntry("ipv4_lpm", []uint64{uint64(packet.IP4(10, 0, 0, 0))},
				[]uint64{pisa.PrefixMask(16, 32)}, 16, "set_egress", 0))
		case "heavyhitter":
			// One slot zeroed per tick: a full 512-slot sweep every ≈1 ms.
			must(sw.ConfigureTimer(0, 2*usec))
		}
		e.load(sc, sw, inst.Program())
		net.AddSwitch(sw)
	}
	net.Connect(sc.sws[0], 1, sc.sws[1], 0, usec)
	net.Connect(sc.sws[1], 1, sc.sws[2], 0, usec)
	h0 := net.NewHost("h0", packet.IP4(10, 0, 0, 5))
	net.Attach(h0, sc.sws[0], 0, 500*sim.Nanosecond)
	h1 := net.NewHost("h1", packet.IP4(10, 9, 0, 5))
	net.Attach(h1, sc.sws[2], 1, 500*sim.Nanosecond)
	sc.gens = chainTraffic(sim.NewRNG(e.seed), e.horizon, func(int) (*sim.Scheduler, workload.Sink) {
		return h0.Scheduler(), e.sendSink(h0)
	})
	return sc
}

// chainTraffic is eight forward CBR flows of IMIX frames, 750 Mb/s each:
// 60 % of the 10G path. No reverse traffic and no link flap, so every frame
// reaches h1.
func chainTraffic(rng *sim.RNG, horizon simTime, src func(int) (*sim.Scheduler, workload.Sink)) []*workload.Gen {
	var gens []*workload.Gen
	for i := 0; i < 8; i++ {
		sched, sink := src(0)
		g := workload.NewGen(sched, rng.Split(), sink)
		g.StartCBR(workload.CBRConfig{
			Flow: packet.Flow{
				Src: packet.IP4(10, 0, 0, 5), Dst: packet.IP4(10, 9, byte(i), byte(2+rng.Intn(250))),
				SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: uint16(80 + i%3), Proto: packet.ProtoUDP,
			},
			Size: workload.IMix{}, Rate: 750 * sim.Mbps, Until: horizon,
		})
		gens = append(gens, g)
	}
	return gens
}

// Fat-tree shape, as in internal/bench/fattree.go: k=8 (80 switches, 128
// hosts), pods taking turns at a dense intra-pod shuffle in 250 µs slots
// while one thin flow per pod crosses the core plane for the whole run.
const (
	ftK        = 8
	ftHalf     = ftK / 2
	ftSlot     = 250 * usec
	ftHostRate = 1120 * sim.Mbps
	ftInterGap = 40 * usec
)

// ftHost indexes host h on edge e of pod p.
func ftHost(p, e, h int) int { return (p*ftHalf+e)*ftHalf + h }

// buildFatTree returns the builder for the serial (domains = 1) or the
// partitioned fat tree. The plan is fixed here, not computed: pods 0–3 in
// domain 0, pods 4–7 in domain 1, core c in domain c mod 2, so every cross
// link is an agg–core fibre of at least 5 µs.
func buildFatTree(domains int) func(e *env) *scenario {
	return func(e *env) *scenario {
		sc := &scenario{}
		var net *netsim.Network
		if domains > 1 {
			sc.part = sim.NewPartition(domains)
			net = netsim.NewPartitioned(sc.part)
			for d := 0; d < domains; d++ {
				sc.scheds = append(sc.scheds, sc.part.Sched(d))
			}
		} else {
			sc.scheds = []*sim.Scheduler{sim.NewScheduler()}
			net = netsim.New(sc.scheds[0])
		}
		sc.net, sc.run = net, net.Run
		podSched := func(p int) *sim.Scheduler { return sc.scheds[p*domains/ftK] }
		coreSched := func(c int) *sim.Scheduler { return sc.scheds[c%domains] }

		// Switches pod-major: pod p's edges at p*k+e, aggs at p*k+half+a,
		// cores at k*k+c.
		add := func(name string, sched *sim.Scheduler, cfg apps.FatTreeConfig) {
			cfg.K = ftK
			sw := core.New(core.Config{Name: name, Ports: ftK}, core.EventDriven(), sched)
			e.load(sc, sw, apps.FatTreeRouter(cfg))
			net.AddSwitch(sw)
		}
		for p := 0; p < ftK; p++ {
			for i := 0; i < ftHalf; i++ {
				add(fmt.Sprintf("p%de%d", p, i), podSched(p), apps.FatTreeConfig{Role: apps.FatTreeEdge, Pod: p, Idx: i})
			}
			for i := 0; i < ftHalf; i++ {
				add(fmt.Sprintf("p%da%d", p, i), podSched(p), apps.FatTreeConfig{Role: apps.FatTreeAgg, Pod: p, Idx: i})
			}
		}
		for c := 0; c < ftHalf*ftHalf; c++ {
			add(fmt.Sprintf("core%d", c), coreSched(c), apps.FatTreeConfig{Role: apps.FatTreeCore, Idx: c})
		}
		edge := func(p, i int) *core.Switch { return sc.sws[p*ftK+i] }
		agg := func(p, i int) *core.Switch { return sc.sws[p*ftK+ftHalf+i] }

		// Intra-pod links are 1 µs; agg–core fibres are 5 µs + 2.5 µs per pod.
		for p := 0; p < ftK; p++ {
			for i := 0; i < ftHalf; i++ {
				for a := 0; a < ftHalf; a++ {
					net.Connect(edge(p, i), ftHalf+a, agg(p, a), i, usec)
				}
			}
			for a := 0; a < ftHalf; a++ {
				for j := 0; j < ftHalf; j++ {
					net.Connect(agg(p, a), ftHalf+j, sc.sws[ftK*ftK+a*ftHalf+j], p,
						5*usec+simTime(p)*2500*sim.Nanosecond)
				}
			}
		}
		hosts := make([]*netsim.Host, ftK*ftHalf*ftHalf)
		for p := 0; p < ftK; p++ {
			for i := 0; i < ftHalf; i++ {
				for h := 0; h < ftHalf; h++ {
					host := net.NewHost(fmt.Sprintf("h%d.%d.%d", p, i, h), apps.FatTreeHostIP(p, i, h))
					net.Attach(host, edge(p, i), h, 500*sim.Nanosecond)
					hosts[ftHost(p, i, h)] = host
				}
			}
		}
		sc.gens = fatTreeTraffic(sim.NewRNG(e.seed), e.horizon, func(i int) (*sim.Scheduler, workload.Sink) {
			return hosts[i].Scheduler(), e.sendSink(hosts[i])
		})
		e.hookBarriers(sc)
		return sc
	}
}

// fatTreeTraffic is the rolling pod shuffle plus the thin inter-pod flows.
// The seed picks every flow's source port, and with it the ECMP uplink each
// flow hashes onto.
func fatTreeTraffic(rng *sim.RNG, horizon simTime, src func(int) (*sim.Scheduler, workload.Sink)) []*workload.Gen {
	var gens []*workload.Gen
	// During pod p's slots every host streams CBR to the same-numbered host
	// one edge over: a 3-switch path through the pod's agg layer.
	for p := 0; p < ftK; p++ {
		for i := 0; i < ftHalf; i++ {
			for h := 0; h < ftHalf; h++ {
				sched, sink := src(ftHost(p, i, h))
				g := workload.NewGen(sched, rng.Split(), sink)
				cfg := workload.CBRConfig{
					Flow: packet.Flow{
						Src: apps.FatTreeHostIP(p, i, h), Dst: apps.FatTreeHostIP(p, (i+1)%ftHalf, h),
						SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 80, Proto: packet.ProtoUDP,
					},
					Size: workload.FixedSize(256), Rate: ftHostRate,
				}
				for start := simTime(p) * ftSlot; start < horizon; start += ftK * ftSlot {
					slot := cfg
					slot.Until = min(start+ftSlot, horizon)
					sched.At(start, func() { g.StartCBR(slot) })
				}
				gens = append(gens, g)
			}
		}
	}
	// One 256 B frame (280 B on the wire) per ftInterGap from each pod to
	// the next, through the core plane.
	for p := 0; p < ftK; p++ {
		sched, sink := src(ftHost(p, 0, 0))
		g := workload.NewGen(sched, rng.Split(), sink)
		g.StartCBR(workload.CBRConfig{
			Flow: packet.Flow{
				Src: apps.FatTreeHostIP(p, 0, 0), Dst: apps.FatTreeHostIP((p+1)%ftK, 0, 1),
				SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443, Proto: packet.ProtoUDP,
			},
			Size:  workload.FixedSize(256),
			Rate:  sim.Rate(280 * 8 * int64(sim.Second) / int64(ftInterGap)),
			Until: horizon,
		})
		gens = append(gens, g)
	}
	return gens
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// --- counts and digest --------------------------------------------------------

// collect reads every counter the benchmark reports and folds the simulated
// outcome into an FNV-1a digest: every switch Stats field, link direction
// counter, host Rx counter, register cell and table stat. Partition windows
// and barriers are not digested — they describe how the run was executed,
// not what it computed.
func (sc *scenario) collect() counts {
	var c counts
	dig := fnv.New64a()
	put := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			dig.Write(buf[:])
		}
	}
	var lagSum float64
	for i, sw := range sc.sws {
		st := sw.Stats()
		c.Cycles += st.Cycles
		c.PktHops += st.TxPackets
		c.TxBytes += st.TxBytes
		c.PacketSlots += st.PacketSlots
		c.EmptySlots += st.EmptySlots
		c.DrainSlots += st.DrainSlots
		c.Offered += st.Generated
		put(st.RxPackets, st.RxBytes, st.TxPackets, st.TxBytes, st.RxDropped, st.TxDroppedLinkDown,
			st.PipelineDrops, st.Cycles, st.PacketSlots, st.EmptySlots, st.DrainSlots,
			st.Recirculated, st.Generated)
		for k := 0; k < events.NumKinds; k++ {
			kind := events.Kind(k)
			c.EvMerged += st.EventsMerged[k]
			if !kind.IsPacketEvent() && kind != events.GeneratedPacket {
				c.EvQueued += st.EventsMerged[k]
			}
			c.EvDropped += st.EventsDropped[k]
			c.EvCoalesced += st.EventsCoalesced[k]
			c.EvShed += st.EventsShed[k]
			put(st.EventsMerged[k], st.EventsDropped[k], st.EventsCoalesced[k], st.EventsShed[k])
		}
		enq, deq, drops, peak := sw.TM().Stats()
		c.TMEnq += enq
		c.TMDeq += deq
		c.TMDrops += drops
		c.TMPeakBytes = max(c.TMPeakBytes, peak)
		put(enq, deq, drops, uint64(peak))

		prog := sc.progs[i]
		for _, r := range prog.Registers() {
			m, conflicts := r.Metrics()
			c.Deferred += m.Deferred
			c.Drained += m.Drained
			c.StateDropped += m.Dropped
			c.MaxBacklog = max(c.MaxBacklog, m.MaxBacklog)
			c.MaxLag = max(c.MaxLag, m.MaxLag)
			lagSum += m.MeanLag * float64(m.Drained)
			put(m.Deferred, m.Drained, m.Dropped, uint64(m.MaxBacklog), m.MaxLag, conflicts)
			for j := 0; j < r.Size(); j++ {
				if v := r.True(uint32(j)); v != 0 {
					put(uint64(j), uint64(v))
				}
			}
		}
		for _, tn := range prog.TableNames() {
			lookups, misses := prog.Table(tn).Stats()
			c.TableLookups += lookups
			c.TableMisses += misses
			put(lookups, misses)
		}
	}
	if c.Drained > 0 {
		c.MeanLag = lagSum / float64(c.Drained)
	}
	for _, g := range sc.gens {
		c.GenFrames += g.SentPackets
	}
	c.Offered += c.GenFrames
	for _, s := range sc.scheds {
		c.Fired += s.Fired()
	}
	if sc.part != nil {
		c.Windows, c.Barriers = sc.part.Windows(), sc.part.Barriers()
	}

	var report *faults.Report
	if sc.net == nil {
		c.Delivered = c.PktHops // the egress wire
		report = faults.AuditSwitches(sc.sws...)
	} else {
		for _, l := range sc.net.Links() {
			for dir := 0; dir < 2; dir++ {
				d := l.Counters(dir)
				c.LinkSent += d.Sent
				c.LinkDelivered += d.Delivered
				c.LinkLost += d.LostAtSend + d.LostInFlight + d.Dropped
				if l.Cross() {
					c.LinkCross += d.Sent
				}
				put(d.Sent, d.Delivered, d.LostAtSend, d.LostInFlight, d.Dropped, d.InFlight())
			}
		}
		for _, h := range sc.net.Hosts() {
			c.Delivered += h.RxPackets
			put(h.RxPackets, h.RxBytes)
		}
		c.HostSends = c.GenFrames
		report = faults.Audit(sc.net)
	}
	c.Audit = report.Violations
	c.Digest = dig.Sum64()
	return c
}

// calibration is what the layer drivers take from the workload they
// reconcile with, instead of constants.
type calibration struct {
	spec       *workloadSpec
	seed       uint64
	horizon    simTime
	frames     [][]byte // sampled at the sinks of the traced trial
	pending    int      // sim.pending_p50
	tmCfg      tm.Config
	tmDepth    int // standing queue depth in packets, from tm.peak_bytes
	evqDepth   int
	regSize    int
	frameBytes float64
}

func (e *env) calibrate(spec *workloadSpec, sc *scenario, c counts) calibration {
	cal := calibration{spec: spec, seed: e.seed, horizon: e.horizon, regSize: 64}
	var pending []int
	for _, cp := range e.captures {
		cal.frames = append(cal.frames, cp.frames...)
		pending = append(pending, cp.pending...)
	}
	if len(cal.frames) == 0 {
		panic("benchmark: traced trial captured no frames")
	}
	var total int
	for _, f := range cal.frames {
		total += len(f)
	}
	cal.frameBytes = float64(total) / float64(len(cal.frames))
	sort.Ints(pending)
	cal.pending = max(1, pending[len(pending)/2])
	cfg := sc.sws[0].Config()
	cal.tmCfg = tm.Config{Ports: cfg.Ports, QueuesPerPort: cfg.QueuesPerPort,
		QueueCapBytes: cfg.QueueCapBytes, Discipline: cfg.Discipline}
	cal.tmDepth = max(1, int(float64(c.TMPeakBytes)/cal.frameBytes/float64(cfg.Ports)))
	cal.evqDepth = cfg.EventQueueDepth
	for _, prog := range sc.progs {
		for _, r := range prog.Registers() {
			cal.regSize = max(cal.regSize, r.Size())
		}
	}
	return cal
}

// --- layer drivers ------------------------------------------------------------
//
// Each driver returns a function that performs n operations of one layer's
// public API and nothing else; ledger.go times it for at least half a second.

type tick struct {
	s      *sim.Scheduler
	period simTime
}

func (t *tick) Run() { t.s.AfterRunner(t.period, t) }

// driveDispatch fires self-rescheduling heap events with `pending` of them
// outstanding: At/AtRunner + Run at the workload's median heap depth.
func driveDispatch(cal calibration) func(n int) int {
	s := sim.NewScheduler()
	period := simTime(cal.pending) * sim.Nanosecond
	for i := 0; i < cal.pending; i++ {
		s.AtRunner(simTime(i)*sim.Nanosecond, &tick{s: s, period: period})
	}
	return func(n int) int { return int(s.Run(s.Now() + simTime(n)*sim.Nanosecond - 1)) }
}

// driveLane re-arms one lane per firing, as a busy pipeline clock does.
func driveLane(calibration) func(n int) int {
	s := sim.NewScheduler()
	var lane *sim.Lane
	lane = s.NewLane(func() { lane.ArmAt(s.Now() + sim.Nanosecond) })
	lane.ArmAt(0)
	return func(n int) int { return int(s.Run(s.Now() + simTime(n)*sim.Nanosecond - 1)) }
}

// driveBarrier runs an empty two-domain partition with one no-op event per
// domain per lookahead, so every window is one lookahead wide and ends in a
// barrier. It reports barriers executed, which is what n counts.
func driveBarrier(calibration) func(n int) int {
	part := sim.NewPartition(2)
	part.SetLookahead(usec)
	for d := 0; d < 2; d++ {
		s := part.Sched(d)
		s.AtRunner(0, &tick{s: s, period: usec})
	}
	var until simTime
	return func(n int) int {
		before := part.Barriers()
		until += simTime(n) * usec
		part.Run(until - 1)
		return int(part.Barriers() - before)
	}
}

// paced replays the captured frames into sink at 10G spacing, forever.
type paced struct {
	s      *sim.Scheduler
	frames [][]byte
	sent   int
	sink   func([]byte)
}

func (p *paced) Run() {
	f := p.frames[p.sent%len(p.frames)]
	p.sent++
	p.sink(f)
	p.s.AfterRunner((10 * sim.Gbps).ByteTime(len(f)+core.WireOverhead), p)
}

// drive advances run by about n frames and reports how many were sent.
func (p *paced) drive(cal calibration, run func(until simTime)) func(n int) int {
	gap := (10 * sim.Gbps).ByteTime(int(cal.frameBytes) + core.WireOverhead)
	p.s.AtRunner(0, p)
	return func(n int) int {
		before := p.sent
		run(p.s.Now() + simTime(n)*gap)
		return p.sent - before
	}
}

func forwarder() *pisa.Program {
	return pisa.NewProgram("fwd").HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
}

// drivePath sends the workload's frames host – one native switch – host.
// Minus driveInject (the same frames, same switch, no network) it is what
// netsim adds per frame: NIC serialization and two link traversals.
func drivePath(cal calibration) func(n int) int {
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := core.New(core.Config{Ports: 2}, core.EventDriven(), s)
	sw.MustLoad(forwarder())
	net.AddSwitch(sw)
	a, b := net.NewHost("a", packet.IP4(10, 0, 0, 1)), net.NewHost("b", packet.IP4(10, 0, 0, 2))
	net.Attach(a, sw, 0, usec)
	net.Attach(b, sw, 1, usec)
	p := &paced{s: s, frames: cal.frames, sink: a.Send}
	return p.drive(cal, net.Run)
}

func driveInject(cal calibration) func(n int) int {
	s := sim.NewScheduler()
	sw := core.New(core.Config{Ports: 2}, core.EventDriven(), s)
	sw.MustLoad(forwarder())
	p := &paced{s: s, frames: cal.frames, sink: func(d []byte) { sw.Inject(0, d) }}
	return p.drive(cal, func(until simTime) { s.Run(until) })
}

// loop turns a single operation into a driver.
func loop(op func(i int)) func(n int) int {
	return func(n int) int {
		for i := 0; i < n; i++ {
			op(i)
		}
		return n
	}
}

func driveParse(cal calibration) func(n int) int {
	var parser packet.Parser
	var decoded []packet.LayerType
	return loop(func(i int) { _ = parser.Decode(cal.frames[i%len(cal.frames)], &decoded) })
}

func driveBuild(cal calibration) func(n int) int {
	specs := make([]packet.FrameSpec, len(cal.frames))
	for i, f := range cal.frames {
		fl, _ := packet.FlowOf(f)
		specs[i] = packet.FrameSpec{Flow: fl, TotalLen: len(f)}
	}
	var buf []byte
	return loop(func(i int) { buf = packet.AppendFrame(buf[:0], specs[i%len(specs)]) })
}

func drivePool(cal calibration) func(n int) int {
	pool := packet.NewPool()
	return loop(func(i int) { pool.GetCopy(cal.frames[i%len(cal.frames)], 0).Release() })
}

func driveEventQueue(cal calibration) func(n int) int {
	q := events.NewQueue(events.BufferEnqueue, cal.evqDepth)
	return loop(func(i int) {
		q.Offer(events.Event{Kind: events.BufferEnqueue, Port: i & 3, PktLen: 60, Seq: uint64(i)})
		q.Pop()
	})
}

// driveState defers one delta per cycle into a two-bank aggregated array of
// the workload's register size and lets the cycle's spare port drain it.
func driveState(cal calibration) func(n int) int {
	ag := state.NewAggregated("drv", cal.regSize, 1, "enq", "deq")
	var cycle uint64
	return loop(func(i int) {
		cycle++
		ag.Tick(cycle)
		ag.Defer(i&1, uint32(i)%uint32(cal.regSize), 60)
		ag.EndCycle()
	})
}

// driveTM enqueues and dequeues pooled packets of the workload's frames at
// its discipline, over a standing queue of the depth the workload reached.
func driveTM(cal calibration) func(n int) int {
	t := tm.New(cal.tmCfg)
	pool := packet.NewPool()
	enq := func(i int) {
		f := cal.frames[i%len(cal.frames)]
		fl, _ := packet.FlowOf(f)
		if !t.Enqueue(pool.GetCopy(f, 0), i%cal.tmCfg.Ports, 0, 0, fl.Hash(), 0) {
			panic("benchmark: tm driver overflowed its queue")
		}
	}
	for i := 0; i < cal.tmDepth*cal.tmCfg.Ports; i++ {
		enq(i)
	}
	return loop(func(i int) {
		enq(i)
		pkt, _ := t.Dequeue(i%cal.tmCfg.Ports, 0)
		pkt.Release()
	})
}

// driveGen runs the workload's own generators, same seed and horizon, into
// no-op sinks on a bare scheduler: whole passes until n frames are out. It
// reports the frames generated.
func driveGen(cal calibration) func(n int) int {
	return func(n int) int {
		var frames uint64
		for frames < uint64(n) {
			s := sim.NewScheduler()
			gens := cal.spec.traffic(sim.NewRNG(cal.seed), cal.horizon, func(int) (*sim.Scheduler, workload.Sink) {
				return s, func([]byte) {}
			})
			s.Run(cal.horizon)
			for _, g := range gens {
				frames += g.SentPackets
			}
		}
		return int(frames)
	}
}
