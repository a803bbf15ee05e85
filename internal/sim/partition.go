package sim

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/self"
)

// Partition is a conservative (Chandy–Misra style) parallel driver for a
// set of Schedulers. Each member scheduler is a domain: a group of
// simulated components that interact with the other domains only through
// messages carrying at least Lookahead of virtual latency. Run advances
// every domain in bounded windows — the domains execute concurrently up
// to their window edges (domain 0 on the goroutine that called Run, each
// other one on a worker of its own), then all synchronize at a barrier
// where cross-domain messages are exchanged (the OnBarrier hooks; netsim
// drains its link mailboxes there).
//
// Window edges are adaptive (DESIGN.md §16). A domain's edge is the
// earliest instant any pending work anywhere could deliver an effect to
// it: min over domains o of next(o) + dist(o→d), where next(o) is o's
// earliest pending event at the barrier and dist is the all-pairs
// shortest path over minimum cross-domain latencies (the per-pair matrix
// installed with SetCrossLatency, or the global Lookahead for every pair
// when no matrix is installed). The closure is what makes the bound
// sound: an effect may chain through intermediate domains — o wakes q,
// q's reply reaches d — and each crossing costs at least the pair's
// matrix entry, while intra-domain processing is conservatively free.
// The o = d term uses the shortest cycle through d: a domain's own sends
// can come back to it as replies, so a busy domain surrounded by idle
// ones may run ahead exactly one round trip, not to the horizon. When
// the other domains are idle or far away, one window batches what the
// fixed-width protocol would have split across many barrier rounds;
// when they are close, the edge degenerates to the classic
// min(next)+Lookahead, never below it (every path crosses at least one
// link, so dist ≥ Lookahead everywhere). Combined with the scheduler
// wire band (arrivals ordered by engine-independent keys, before
// same-time local events), a partitioned run executes exactly the event
// sequence the single-scheduler run would — byte-identical output at
// any domain count.
type Partition struct {
	scheds    []*Scheduler
	lookahead Time
	// cross[o][d] is the minimum latency of a direct o→d cross-domain
	// interaction; Forever = the pair cannot interact directly. nil means
	// no matrix was installed and every pair is assumed reachable at
	// lookahead (the conservative default for callers that exchange
	// messages through their own OnBarrier hooks).
	cross [][]Time
	// dist is the shortest-path closure of cross (recomputed when the
	// matrix changes); cyc[d] is the shortest cycle through d — the
	// minimum round trip a domain's own sends need to come back to it.
	dist      [][]Time
	cyc       []Time
	distDirty bool
	// classic forces fixed-width conservative windows (min(next)+lookahead
	// for every domain) instead of adaptive per-domain edges. The batched
	// and classic protocols execute the identical event sequence — classic
	// mode exists as the differential oracle for that claim and as the
	// baseline for barrier-reduction measurements.
	classic  bool
	barriers []func()
	// barrierCount counts synchronization points across Run calls
	// (coordinator-only writes; read between Runs).
	barrierCount uint64
	// windows counts coordinator window rounds. Atomic so mid-run
	// observers (an event callback firing inside a window) can read it
	// while the coordinator loops.
	windows atomic.Uint64

	next  []Time // scratch: per-domain earliest pending event at a barrier
	edges []Time // scratch: per-domain window edge
}

// NewPartition builds a partition of n fresh schedulers (n >= 1).
func NewPartition(n int) *Partition {
	if n < 1 {
		panic("sim: partition needs at least one domain")
	}
	p := &Partition{scheds: make([]*Scheduler, n)}
	for i := range p.scheds {
		p.scheds[i] = NewScheduler()
	}
	return p
}

// Domains returns the number of domains.
func (p *Partition) Domains() int { return len(p.scheds) }

// SetSelf hands every domain's scheduler the run's self-metrics plane
// (Scheduler.SetSelf); the partition's own accounting follows domain 0's.
func (p *Partition) SetSelf(pl *self.Plane) {
	for _, s := range p.scheds {
		s.self = pl
	}
}

// Sched returns domain i's scheduler.
func (p *Partition) Sched(i int) *Scheduler { return p.scheds[i] }

// Index returns the domain owning s, or -1.
func (p *Partition) Index(s *Scheduler) int {
	for i, d := range p.scheds {
		if d == s {
			return i
		}
	}
	return -1
}

// SetLookahead sets the conservative window width: the minimum virtual
// latency of any cross-domain interaction. With more than one domain it
// must be positive before Run (netsim computes it as the minimum
// cross-domain link latency). It bounds every domain pair when no
// per-pair matrix is installed, and remains the floor of every edge when
// one is.
func (p *Partition) SetLookahead(d Time) { p.lookahead = d }

// SetCrossLatency records the minimum virtual latency of a direct
// src→dst cross-domain interaction, tightening (never loosening) any
// previously recorded value. Installing the matrix upgrades the window
// protocol from one global conservative width to per-domain adaptive
// edges: a domain is bounded only by the domains that can actually send
// to it, at their actual minimum latencies, and pairs never recorded
// cannot interact at all. netsim installs the matrix from its
// cross-domain link latencies; SetLookahead is still required.
func (p *Partition) SetCrossLatency(src, dst int, lat Time) {
	if lat <= 0 {
		panic("sim: cross-domain latency must be positive")
	}
	if src == dst {
		return
	}
	if p.cross == nil {
		p.cross = make([][]Time, len(p.scheds))
		for i := range p.cross {
			row := make([]Time, len(p.scheds))
			for j := range row {
				row[j] = Forever
			}
			p.cross[i] = row
		}
	}
	if lat < p.cross[src][dst] {
		p.cross[src][dst] = lat
		p.distDirty = true
	}
}

// closure (re)computes the all-pairs shortest-path matrix over the
// recorded cross latencies (Floyd–Warshall; domain counts are small) and
// each domain's shortest cycle. Runs at Run start when the matrix
// changed, never mid-window.
func (p *Partition) closure() {
	n := len(p.scheds)
	if p.dist == nil {
		p.dist = make([][]Time, n)
		for i := range p.dist {
			p.dist[i] = make([]Time, n)
		}
		p.cyc = make([]Time, n)
	}
	for i := range p.dist {
		copy(p.dist[i], p.cross[i])
		p.dist[i][i] = Forever // self-distance tracked separately as cyc
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if p.dist[i][k] == Forever {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if d := satAdd(p.dist[i][k], p.dist[k][j]); d < p.dist[i][j] {
					p.dist[i][j] = d
				}
			}
		}
	}
	for d := 0; d < n; d++ {
		c := Forever
		for o := 0; o < n; o++ {
			if o == d {
				continue
			}
			if r := satAdd(p.dist[d][o], p.dist[o][d]); r < c {
				c = r
			}
		}
		p.cyc[d] = c
	}
	p.distDirty = false
}

// OnBarrier registers fn to run single-threaded at every synchronization
// point (before the first window, between windows, and after the last),
// while no domain is executing. Exchange hooks deliver
// cross-domain messages here by scheduling them on the destination
// domain, typically via AtWireRunner.
func (p *Partition) OnBarrier(fn func()) { p.barriers = append(p.barriers, fn) }

func (p *Partition) barrier() {
	p.barrierCount++
	for _, fn := range p.barriers {
		fn()
	}
	if pl := p.scheds[0].self; pl != nil {
		pl.PartBarriers.Inc()
	}
}

// SetClassicWindows(true) disables adaptive window batching: every
// window uses the fixed conservative width min(next)+Lookahead, the
// protocol the adaptive edges strictly improve on. Both modes execute
// the identical event sequence; classic mode is the differential oracle
// for that claim and the baseline for barrier-reduction measurements.
func (p *Partition) SetClassicWindows(on bool) { p.classic = on }

// Barriers returns the number of synchronization points executed across
// all Run calls: the direct measure of the cross-domain coordination the
// adaptive protocol removes. Like Windows it depends on the domain
// count, lookahead, and batching mode, so it belongs in run metadata,
// never in exports compared across domain counts.
func (p *Partition) Barriers() uint64 { return p.barrierCount }

// scanNext records every domain's earliest pending instant (Forever when
// idle) and returns the minimum. Runs at a barrier, after the exchange
// hooks, so mailboxed frames already delivered onto a domain's wire band
// are part of its next.
func (p *Partition) scanNext() Time {
	s := Forever
	for i, d := range p.scheds {
		at, ok := d.NextAt()
		if !ok {
			at = Forever
		}
		p.next[i] = at
		if at < s {
			s = at
		}
	}
	return s
}

// satAdd adds a non-negative delta to a time, saturating at Forever.
func satAdd(a, b Time) Time {
	if c := a + b; c >= a {
		return c
	}
	return Forever
}

// computeEdges fills p.edges with each domain's window edge, clamped to
// until: the earliest instant any pending work anywhere could deliver a
// cross-domain effect to it, via any chain of crossings (the dist
// closure; the global lookahead single-hop / double-hop bound when no
// matrix is installed). A domain bounds itself only through the shortest
// cycle back to it — its own events are sequential on one goroutine, but
// their replies are not.
func (p *Partition) computeEdges(until Time) {
	n := len(p.scheds)
	for d := 0; d < n; d++ {
		edge := Forever
		for o := 0; o < n; o++ {
			if p.next[o] == Forever {
				continue
			}
			var lat Time
			switch {
			case o == d && p.dist != nil:
				lat = p.cyc[d]
			case o == d:
				lat = satAdd(p.lookahead, p.lookahead)
			case p.dist != nil:
				lat = p.dist[o][d]
			default:
				lat = p.lookahead
			}
			if lat == Forever {
				continue
			}
			if a := satAdd(p.next[o], lat); a < edge {
				edge = a
			}
		}
		if edge > until {
			edge = until
		}
		p.edges[d] = edge
	}
}

// eventCount is one direction of the epoch gate: a monotone counter that
// one side advances and exactly one goroutine awaits. A waiter climbs a
// three-rung ladder — spin, yield, park — so that a core with work to hand
// over or pick up never goes through a futex for it, and a domain idle
// for a whole traffic phase still ends up asleep.
//
// A wake can never be lost: the signaller bumps n before it reads parked,
// the waiter publishes want and parked before it re-reads n. The token
// channel is buffered and sends never block, so a stale token at worst
// causes one spurious wake, which the re-check loop absorbs.
type eventCount struct {
	n      atomic.Uint64
	want   atomic.Uint64 // the count a parked waiter needs
	parked atomic.Bool
	wake   chan struct{}
}

// The ladder's budgets, measured on the 2-CPU container with the k=8 fat
// tree under 2 domains (19 162 windows of ≈110 µs, pkt_hops_per_s):
//
//   - spinLoads pure loads (≈1–3 µs) catch a hand-off that is already on
//     its way without entering the Go scheduler. Skipped when the process
//     has one P, where nobody else can be making progress.
//   - yieldRounds of runtime.Gosched + re-check (110–220 ns a round, so
//     ≈0.4–0.9 ms) outlast a window of the other side's work. Parking
//     instead — the parent's spin-3000-then-park — read 1.00–1.05 M/s
//     against 1.36–1.42 M/s here; 500 rounds falls back to 1.05–1.08 M/s,
//     2000 and 8000 read the same as 4000. The rung yields rather than
//     spins because an equally long pure spin starves runnable work as
//     soon as goroutines outnumber Ps: go test ./internal/bench (8
//     parallel trials × 2 domains on 2 CPUs) took 130 s with it, 20 s with
//     the yield, 25 s at the parent.
const (
	spinLoads   = 3000
	yieldRounds = 4000
)

// signal advances the count and wakes the waiter if it parked for a count
// now reached.
func (c *eventCount) signal() {
	if v := c.n.Add(1); c.parked.Load() && v >= c.want.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// await blocks until the count reaches target.
func (c *eventCount) await(target uint64, spin bool) {
	if spin {
		for i := 0; i < spinLoads; i++ {
			if c.n.Load() >= target {
				return
			}
		}
	}
	for i := 0; i < yieldRounds; i++ {
		if c.n.Load() >= target {
			return
		}
		runtime.Gosched()
	}
	c.want.Store(target)
	for c.n.Load() < target {
		c.parked.Store(true)
		if c.n.Load() < target {
			<-c.wake
		}
		c.parked.Store(false)
	}
}

// gateWorker is the gate slot of one domain other than 0. The coordinator
// writes edge/incl/stop and then signals released, which publishes them;
// the count is per worker so that a round which skips this domain leaves
// its worker's round number alone. fired is the worker's until it signals
// done. The tail padding keeps two workers' counts off one cache line.
type gateWorker struct {
	released eventCount
	edge     Time
	incl     bool
	stop     bool
	fired    uint64
	_        [64]byte
}

// epochGate hands window rounds from the coordinator to the persistent
// domain workers. Domain 0 has no worker: the coordinator runs its window
// itself between releasing the others and awaiting them, so n domains are
// n goroutines and a host with one P per domain never has a runnable
// goroutine without a P. Releasing a worker and reporting back are one
// atomic add each (plus a wake when the other side parked).
type epochGate struct {
	done     eventCount    // windows finished by workers, all rounds
	expected uint64        // windows released to workers, all rounds
	workers  []*gateWorker // workers[i] drives domain i+1
	spin     bool
}

// startGate spawns the persistent worker of every domain but 0 for the
// duration of one Run call; shutdown ends them.
func startGate(scheds []*Scheduler) *epochGate {
	g := &epochGate{
		workers: make([]*gateWorker, len(scheds)-1),
		spin:    runtime.GOMAXPROCS(0) > 1,
	}
	g.done.wake = make(chan struct{}, 1)
	for i := range g.workers {
		w := &gateWorker{}
		w.released.wake = make(chan struct{}, 1)
		g.workers[i] = w
		go g.work(i+1, scheds[i+1], w)
	}
	return g
}

// release hands w one window to run.
func (g *epochGate) release(w *gateWorker, edge Time, incl bool) {
	w.edge, w.incl = edge, incl
	g.expected++
	w.released.signal()
}

// shutdown releases the workers one last time with stop set; they exit
// without reporting back.
func (g *epochGate) shutdown() {
	for _, w := range g.workers {
		w.stop = true
		w.released.signal()
	}
}

// work is the persistent goroutine of domain d (d ≥ 1) for one Run call:
// it lives across every window of the run, waiting on its released count
// between windows, and exits on shutdown.
func (g *epochGate) work(d int, s *Scheduler, w *gateWorker) {
	// Barrier-stall accounting: the time between finishing a window (or
	// starting) and the next release is this domain's stall — rounds it
	// sat out because it had nothing before its edge included. Wall-clock
	// only; never observed by simulation code.
	var idleSince time.Time
	if s.self != nil {
		idleSince = time.Now()
	}
	for round := uint64(1); ; round++ {
		w.released.await(round, g.spin)
		if w.stop {
			return
		}
		if s.self != nil {
			s.self.DomainStallNS(d).Add(uint64(time.Since(idleSince).Nanoseconds()))
		}
		if w.incl {
			w.fired += s.Run(w.edge)
		} else {
			w.fired += s.RunBefore(w.edge)
		}
		if s.self != nil {
			idleSince = time.Now()
		}
		g.done.signal()
	}
}

// round executes one window of every domain. A domain with nothing
// pending before its edge sits the round out: RunBefore past nothing
// fires nothing and leaves the clock alone, so not calling it is exact —
// and an idle domain's worker stays parked while the busy ones run. The
// final inclusive pass runs everywhere, because Run also moves the clock.
// Returns the events domain 0 fired.
func (p *Partition) round(g *epochGate, incl bool) uint64 {
	for i, w := range g.workers {
		if d := i + 1; incl || p.next[d] < p.edges[d] {
			g.release(w, p.edges[d], incl)
		}
	}
	var fired uint64
	switch {
	case incl:
		fired = p.scheds[0].Run(p.edges[0])
	case p.next[0] < p.edges[0]:
		fired = p.scheds[0].RunBefore(p.edges[0])
	}
	pl := p.scheds[0].self
	if pl == nil {
		g.done.await(g.expected, g.spin)
		return fired
	}
	// Domain 0's stall is what the coordinator spends waiting for the
	// others after its own window. Every domain counts every round,
	// whether or not it had work in it.
	t0 := time.Now()
	g.done.await(g.expected, g.spin)
	pl.DomainStallNS(0).Add(uint64(time.Since(t0).Nanoseconds()))
	for d := range p.scheds {
		pl.DomainWindows(d).Inc()
	}
	return fired
}

// Run advances all domains to until, leaving every domain clock at until
// (mirroring Scheduler.Run). It returns the number of events executed
// across all domains.
//
// Window protocol: at each round the barrier hooks run (delivering any
// cross-domain messages produced by the previous window — a message's
// arrival never precedes its receiver's edge, so delivery is always in
// the receiver's future), then every domain's earliest pending instant
// is scanned and per-domain edges are computed (computeEdges). The loop
// ends when no domain holds an event before until; a final inclusive
// pass executes events at exactly until (their cross-domain effects land
// at or after until plus the pair latency and stay mailboxed for a later
// Run, exactly as the single-scheduler run would leave them pending).
func (p *Partition) Run(until Time) uint64 {
	pl := p.scheds[0].self
	if len(p.scheds) == 1 {
		p.barrier()
		p.windows.Add(1)
		n := p.scheds[0].Run(until)
		p.barrier()
		if pl != nil {
			pl.SetDomains(1)
			pl.DomainWindows(0).Inc()
			pl.SimNowPS.Set(int64(until))
		}
		return n
	}
	if p.lookahead <= 0 {
		panic("sim: partition with multiple domains needs a positive lookahead")
	}
	if pl != nil {
		pl.SetDomains(len(p.scheds))
	}
	if len(p.next) != len(p.scheds) {
		p.next = make([]Time, len(p.scheds))
		p.edges = make([]Time, len(p.scheds))
	}
	if p.distDirty {
		p.closure()
	}
	g := startGate(p.scheds)
	defer g.shutdown()
	var fired uint64
	for {
		p.barrier()
		s := p.scanNext()
		if s >= until {
			break
		}
		p.windows.Add(1)
		classic := until
		if p.lookahead < until-s {
			classic = s + p.lookahead
		}
		if p.classic {
			for i := range p.edges {
				p.edges[i] = classic
			}
		} else {
			p.computeEdges(until)
		}
		fired += p.round(g, false)
		if pl != nil {
			minEdge, batched := Forever, false
			for _, e := range p.edges {
				minEdge = min(minEdge, e)
				batched = batched || e > classic
			}
			pl.SimNowPS.Set(int64(minEdge))
			if batched {
				pl.PartBatchedWindows.Inc()
			}
		}
	}
	p.windows.Add(1)
	for i := range p.edges {
		p.edges[i] = until
	}
	fired += p.round(g, true)
	p.barrier()
	if pl != nil {
		pl.SimNowPS.Set(int64(until))
	}
	for _, w := range g.workers {
		fired += w.fired
	}
	return fired
}

// Windows returns the number of window rounds executed across all Run
// calls (1 per Run in the single-domain fast path). With per-domain
// Fired() counts it describes the parallel run's shape for telemetry;
// window counts depend on the domain count, lookahead, and batching, so
// they belong in run metadata, not in exports compared across domain
// counts.
func (p *Partition) Windows() uint64 { return p.windows.Load() }
