// Package netsim wires switches (internal/core) and hosts into a network:
// links with propagation latency, host endpoints, and fault injection
// (link failures raise LinkStatusChange events in the attached switches).
// The multi-switch experiments — HULA probing, fast re-route, liveness
// monitoring — run on netsim topologies.
//
// A network runs either on a single scheduler (New) or on a
// sim.Partition (NewPartitioned): switches built on different partition
// domains execute concurrently, and frames crossing a domain boundary
// travel through per-link mailboxes exchanged at the partition's
// synchronization barriers. Delivery order is pinned by the scheduler's
// wire band keyed on (directed link id, per-direction frame counter), so
// a partitioned run is byte-identical to the single-scheduler run.
package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
)

// endpoint is one side of a link.
type endpoint struct {
	sw   *core.Switch
	port int
	host *Host
}

func (e endpoint) String() string {
	if e.host != nil {
		return e.host.Name
	}
	return fmt.Sprintf("%s:%d", e.sw.Name(), e.port)
}

// Deliverable is one copy of a frame an impairment lets through: the
// (possibly mutated) bytes plus extra latency beyond the link's
// propagation delay. Returning the same frame twice models duplication;
// different ExtraDelay values model reordering.
type Deliverable struct {
	Data       []byte
	ExtraDelay sim.Time
}

// Impairment decides the fate of each frame entering a link: it returns
// the copies to deliver (nil or empty means the frame is dropped). The
// data slice passed in is private to the call — no sender or tap aliases
// it, so an impairment may mutate it freely — but it is only valid until
// the impairment returns plus the propagation of the copies it returned
// (the link recycles the buffer for the next frame; propagation makes its
// own copies). An impairment must not retain the slice across calls.
type Impairment func(data []byte) []Deliverable

// DirCounters are one direction's frame counters on a link (direction 0
// is a→b, direction 1 is b→a). The single-writer split that makes the
// partitioned run race-free: Sent, LostAtSend, Dropped, Duplicated and
// Propagated are written only by the sending side's domain; Delivered
// and LostInFlight only by the receiving side's. Conservation per
// direction (faults.Audit checks the summed form) is
//
//	Sent + Duplicated == Delivered + LostAtSend + LostInFlight +
//	                     Dropped + InFlight
//
// where InFlight = Propagated - Delivered - LostInFlight.
type DirCounters struct {
	// Sent counts frames offered in this direction.
	Sent uint64
	// LostAtSend counts frames sent while the link was already down.
	LostAtSend uint64
	// Dropped counts frames an Impairment discarded.
	Dropped uint64
	// Duplicated counts extra copies an Impairment created.
	Duplicated uint64
	// Propagated counts copies put on the wire (post-impairment).
	Propagated uint64
	// Delivered counts frames that reached the far endpoint.
	Delivered uint64
	// LostInFlight counts frames caught mid-propagation by a Fail.
	LostInFlight uint64
}

// InFlight returns the number of frames currently propagating in this
// direction.
func (c *DirCounters) InFlight() uint64 {
	return c.Propagated - c.Delivered - c.LostInFlight
}

// flight is one frame copy propagating along a non-cross link: a pooled
// sim.Runner carrying a private copy of the bytes, scheduled on the
// destination's wire band keyed (arrival, directed link id, send seq).
// Every intra-domain copy crosses its link this way, so the firing order
// is the band's total order. Pooling flights (and their buffers) removes
// the per-frame closure and frame-copy allocations from the delivery hot
// path. Non-cross means one scheduler drives both sides, so the free
// list is single-threaded.
type flight struct {
	n   *Network
	l   *Link
	dir int
	buf []byte
}

// Run implements sim.Runner: complete the arrival, then recycle. arrive's
// consumers (Switch.Inject, Host OnRecv) copy or consume the bytes before
// returning, so the buffer is free for reuse immediately after.
func (f *flight) Run() {
	f.n.arrive(f.l, f.dir, f.buf)
	f.l.flightFree = append(f.l.flightFree, f)
}

// mailFlight is a frame queued for cross-domain delivery at the next
// partition barrier: the mailbox entry and the wire-band Runner in one
// pooled object. Ownership hands off in phases, which is what makes the
// recycling race-free without locks: the sending domain takes a flight
// from mailFree and fills mail during a window; the barrier (single-
// threaded) moves mail onto the receiver's wire band; the receiving
// domain runs it and parks it on mailSpent during a later window; a
// subsequent barrier recycles mailSpent back to mailFree. No two domains
// ever touch the same list during the same window.
type mailFlight struct {
	n   *Network
	l   *Link
	dir int
	at  sim.Time
	seq uint64
	buf []byte
}

// Run implements sim.Runner in the receiving side's domain.
func (m *mailFlight) Run() {
	m.n.arrive(m.l, m.dir, m.buf)
	m.n.parkSpent(m.l, m.dir, m)
}

// parkSpent returns a delivered mailFlight to the link's spent list and
// puts the (link, direction) on the receiving domain's barrier recycle
// list. Runs in the receiving side's domain.
func (n *Network) parkSpent(l *Link, dir int, m *mailFlight) {
	l.mailSpent[dir] = append(l.mailSpent[dir], m)
	if !l.spentQueued[dir] {
		l.spentQueued[dir] = true
		d := l.domain[1-dir] // receiving side's domain owns this list
		n.dirtySpent[d] = append(n.dirtySpent[d], mailRef{l: l, dir: dir})
	}
}

// Link is a point-to-point connection between two endpoints. Packet
// serialization is modeled by the transmitting device (switch TX or host
// NIC); the link adds propagation latency, can be failed, and can carry
// an Impairment (loss, corruption, reordering, duplication).
//
// Every piece of run-time link state is split per direction or per side
// with a single writing domain, so a link crossing a partition boundary
// is touched concurrently without locks or races.
type Link struct {
	net     *Network
	id      int // index into net.links; half of the wire-band key
	a, b    endpoint
	latency sim.Time
	// sideUp is each endpoint's view of the link state. The views
	// transition at the same virtual instant (Fail/Repair flip both;
	// ScheduleLinkChange schedules both sides for the same time), but
	// each is written only by its own side's domain.
	sideUp [2]bool
	impair Impairment
	dir    [2]DirCounters
	// wireSeq numbers propagated copies per direction, in send order —
	// the engine-independent tiebreak for same-instant arrivals.
	wireSeq [2]uint64
	// sched is the scheduler driving each side (equal unless the link
	// crosses domains); domain holds the matching partition domain
	// indices (0 when unpartitioned). mail holds frames awaiting barrier
	// exchange; mailQueued/spentQueued track whether the (link,
	// direction) is already on the network's barrier dirty list, so a
	// barrier touches only mailboxes that actually received frames.
	// mailQueued is written only by the sending side's domain,
	// spentQueued only by the receiving side's.
	sched       [2]*sim.Scheduler
	domain      [2]int
	cross       bool
	mail        [2][]*mailFlight
	mailQueued  [2]bool
	spentQueued [2]bool
	// mailFree is consumed by the sending domain, mailSpent filled by the
	// receiving domain; the barrier recycles spent→free (see mailFlight).
	mailFree  [2][]*mailFlight
	mailSpent [2][]*mailFlight
	// flightFree pools non-cross in-flight frames (see flight).
	flightFree []*flight
	// impairBuf is the reusable private copy handed to the impairment.
	impairBuf []byte
}

// Counters returns one direction's counters (0: a→b, 1: b→a). Mutable
// access is exported for tests that cook the books to verify auditing.
func (l *Link) Counters(dir int) *DirCounters { return &l.dir[dir] }

// Sent counts frames offered to the link in either direction.
func (l *Link) Sent() uint64 { return l.dir[0].Sent + l.dir[1].Sent }

// Delivered counts frames that reached the far endpoint.
func (l *Link) Delivered() uint64 { return l.dir[0].Delivered + l.dir[1].Delivered }

// LostAtSend counts frames sent while the link was already down.
func (l *Link) LostAtSend() uint64 { return l.dir[0].LostAtSend + l.dir[1].LostAtSend }

// LostInFlight counts frames caught mid-propagation by a Fail.
func (l *Link) LostInFlight() uint64 { return l.dir[0].LostInFlight + l.dir[1].LostInFlight }

// Dropped counts frames an Impairment discarded.
func (l *Link) Dropped() uint64 { return l.dir[0].Dropped + l.dir[1].Dropped }

// Duplicated counts the extra copies an Impairment created (they add to
// Delivered).
func (l *Link) Duplicated() uint64 { return l.dir[0].Duplicated + l.dir[1].Duplicated }

// InFlight returns the number of frames currently propagating (including
// frames parked in a cross-domain mailbox awaiting the next barrier).
func (l *Link) InFlight() uint64 { return l.dir[0].InFlight() + l.dir[1].InFlight() }

// SetImpair installs (or, with nil, removes) the link's impairment. Only
// one impairment is attached at a time; compose stages before installing
// (internal/faults chains its injectors into a single Impairment).
// Impairments keep per-link state behind a shared closure, so a
// partitioned network rejects impairments on links that cross domains.
func (l *Link) SetImpair(f Impairment) { l.impair = f }

// Cross reports whether the link's endpoints live in different partition
// domains.
func (l *Link) Cross() bool { return l.cross }

// Scheduler returns the link's home scheduler: side a's domain. Code
// that observes or manipulates a non-cross link (fault injectors,
// impairment windows) must run on this scheduler.
func (l *Link) Scheduler() *sim.Scheduler { return l.sched[0] }

// String describes the link.
func (l *Link) String() string { return fmt.Sprintf("%v<->%v", l.a, l.b) }

// side returns which side of the link e is (0 for a, 1 for b).
func (l *Link) side(e endpoint) int {
	if e == l.b {
		return 1
	}
	return 0
}

// Host is a simple endpoint: it receives frames (with an optional
// callback) and can send frames into its attached switch port after NIC
// serialization.
type Host struct {
	Name string
	MAC  packet.MAC
	IP   packet.IP

	// OnRecv, when set, observes every delivered frame.
	OnRecv func(data []byte)

	// RxPackets and RxBytes count deliveries.
	RxPackets, RxBytes uint64
	// HeldFrames counts sends deferred while the host was paused.
	HeldFrames uint64

	net    *Network
	link   *Link
	sched  *sim.Scheduler // the attached switch's domain scheduler
	rate   sim.Rate
	busy   sim.Time // NIC busy-until for serialization
	paused bool
	held   [][]byte
	txFree []*hostTx
}

// hostTx is a pooled NIC transmission: the serialization-delay Runner and
// a private copy of the frame. Pooling it makes Host.Send allocation-free
// in steady state and decouples the caller's buffer from the in-flight
// frame (the caller may reuse its slice as soon as Send returns).
type hostTx struct {
	h   *Host
	buf []byte
}

// Run implements sim.Runner: the NIC finished serializing; put the frame
// on the link and recycle (deliver copies into link-owned buffers before
// returning).
func (t *hostTx) Run() {
	h := t.h
	h.net.deliver(h.link, endpoint{host: h}, t.buf)
	h.txFree = append(h.txFree, t)
}

// Scheduler returns the scheduler driving this host: its attached
// switch's domain scheduler, or the network's when unattached.
func (h *Host) Scheduler() *sim.Scheduler {
	if h.sched != nil {
		return h.sched
	}
	return h.net.sched
}

// Send transmits a frame from the host into the network, honoring NIC
// serialization at the attached link's rate. Frames sent while the link
// is down are lost. The frame bytes are copied before Send returns, so
// the caller may reuse its buffer.
func (h *Host) Send(data []byte) {
	if h.link == nil {
		panic("netsim: host " + h.Name + " is not attached")
	}
	if h.paused {
		h.held = append(h.held, append([]byte(nil), data...))
		h.HeldFrames++
		return
	}
	now := h.sched.Now()
	start := now
	if h.busy > start {
		start = h.busy
	}
	ser := h.rate.ByteTime(len(data) + core.WireOverhead)
	h.busy = start + ser
	var t *hostTx
	if n := len(h.txFree); n > 0 {
		t = h.txFree[n-1]
		h.txFree[n-1] = nil
		h.txFree = h.txFree[:n-1]
	} else {
		t = &hostTx{h: h}
	}
	t.buf = append(t.buf[:0], data...)
	h.sched.AtRunner(h.busy, t)
}

// Pause stalls the host: subsequent Sends are held (in order) until
// Resume. It models an endpoint that freezes — a VM pause, a GC stall —
// without losing its transmit queue.
func (h *Host) Pause() { h.paused = true }

// Resume releases a paused host: frames held during the pause are sent
// immediately, in order, through the normal NIC serialization path.
func (h *Host) Resume() {
	if !h.paused {
		return
	}
	h.paused = false
	held := h.held
	h.held = nil
	for _, data := range held {
		h.Send(data)
	}
}

func (h *Host) receive(data []byte) {
	h.RxPackets++
	h.RxBytes += uint64(len(data))
	if h.OnRecv != nil {
		h.OnRecv(data)
	}
}

// Network is a collection of switches, hosts and links on one scheduler
// or one sim.Partition.
type Network struct {
	sched    *sim.Scheduler
	part     *sim.Partition
	switches []*core.Switch
	hosts    []*Host
	links    []*Link
	// attach[i] is what switches[i] transmits into; its OnTransmit
	// closure holds the same record, so the per-frame path looks nothing
	// up.
	attach []*attachment

	hooked bool // barrier hook registered with the partition

	// dirtyMail / dirtySpent are the barrier work lists: (link, direction)
	// pairs whose mailbox received frames (respectively whose spent list
	// received used flights) since the last barrier. One list per domain —
	// each is appended to only by that domain's goroutine during a window
	// and drained single-threaded at the barrier — so a barrier walks the
	// mailboxes that changed instead of every cross link in the network.
	dirtyMail  [][]mailRef
	dirtySpent [][]mailRef

	// OnLinkChange, when set, observes every Fail and Repair (after the
	// attached switches saw their LinkStatusChange events). Control-plane
	// baselines subscribe here to model out-of-band failure detection.
	// In a partitioned network the hook fires in side a's domain.
	OnLinkChange func(l *Link, up bool)
}

// New builds an empty network on a single scheduler.
func New(sched *sim.Scheduler) *Network {
	return &Network{sched: sched}
}

// attachment is one registered switch's wiring: the link on each port
// (nil where none is attached) and the TapTransmit observer.
type attachment struct {
	links []*Link
	tap   func(port int, data []byte)
}

// attachOf finds sw's record, or nil for a switch never added. Set-up
// path only.
func (n *Network) attachOf(sw *core.Switch) *attachment {
	for i, s := range n.switches {
		if s == sw {
			return n.attach[i]
		}
	}
	return nil
}

// NewPartitioned builds an empty network over a partition: switches must
// be constructed on the partition's domain schedulers (core.New with
// p.Sched(i)), and AddSwitch infers each switch's domain from its
// scheduler. Domain 0's scheduler doubles as the network's setup
// scheduler (Scheduler()).
func NewPartitioned(p *sim.Partition) *Network {
	n := New(p.Sched(0))
	n.part = p
	n.dirtyMail = make([][]mailRef, p.Domains())
	n.dirtySpent = make([][]mailRef, p.Domains())
	return n
}

// mailRef names one direction of one cross link on a barrier dirty list.
type mailRef struct {
	l   *Link
	dir int
}

// Scheduler returns the network's scheduler (domain 0's when
// partitioned).
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Partition returns the partition driving the network, or nil.
func (n *Network) Partition() *sim.Partition { return n.part }

// AddSwitch registers a switch and takes over its OnTransmit hook so
// transmitted packets traverse the attached links. On a partitioned
// network the switch must have been built on one of the partition's
// domain schedulers.
func (n *Network) AddSwitch(sw *core.Switch) {
	if n.part != nil && n.part.Index(sw.Scheduler()) < 0 {
		panic("netsim: switch " + sw.Name() + " not built on a partition domain scheduler")
	}
	at := &attachment{links: make([]*Link, sw.Config().Ports)}
	n.switches = append(n.switches, sw)
	n.attach = append(n.attach, at)
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if at.tap != nil {
			at.tap(port, pkt.Data)
		}
		if l := at.links[port]; l != nil {
			n.deliver(l, endpoint{sw: sw, port: port}, pkt.Data)
		}
	}
}

// TapTransmit registers an observer for a switch's transmissions without
// disturbing link delivery (a switch's OnTransmit hook is owned by the
// network once added). The observer runs in the switch's domain.
func (n *Network) TapTransmit(sw *core.Switch, f func(port int, data []byte)) {
	at := n.attachOf(sw)
	if at == nil {
		panic("netsim: TapTransmit on switch " + sw.Name() + " before AddSwitch")
	}
	at.tap = f
}

// Switches lists the registered switches.
func (n *Network) Switches() []*core.Switch { return n.switches }

// Hosts lists the registered hosts.
func (n *Network) Hosts() []*Host { return n.hosts }

// NewHost creates a host with a derived MAC.
func (n *Network) NewHost(name string, ip packet.IP) *Host {
	h := &Host{
		Name: name,
		MAC:  packet.MACFromUint64(0x0200_0000_0000 | uint64(len(n.hosts)+1)),
		IP:   ip,
		net:  n,
	}
	n.hosts = append(n.hosts, h)
	return h
}

// schedOf returns the scheduler driving an endpoint, falling back to
// other's for hosts (a host lives in its attached switch's domain).
func (n *Network) schedOf(e, other endpoint) *sim.Scheduler {
	if e.sw != nil {
		return e.sw.Scheduler()
	}
	if other.sw != nil {
		return other.sw.Scheduler()
	}
	return n.sched
}

func (n *Network) addLink(a, b endpoint, latency sim.Time) *Link {
	l := &Link{
		net:     n,
		id:      len(n.links),
		a:       a,
		b:       b,
		latency: latency,
		sideUp:  [2]bool{true, true},
	}
	l.sched[0] = n.schedOf(a, b)
	l.sched[1] = n.schedOf(b, a)
	if n.part != nil {
		l.domain[0] = n.part.Index(l.sched[0])
		l.domain[1] = n.part.Index(l.sched[1])
	}
	l.cross = l.sched[0] != l.sched[1]
	if l.cross && latency <= 0 {
		panic("netsim: cross-domain link " + l.String() + " needs positive latency (it bounds the partition lookahead)")
	}
	n.links = append(n.links, l)
	for _, e := range [2]endpoint{a, b} {
		if e.sw == nil {
			continue
		}
		at := n.attachOf(e.sw)
		if at == nil || e.port < 0 || e.port >= len(at.links) {
			panic(fmt.Sprintf("netsim: link %s: switch %s was not added or has no port %d", l, e.sw.Name(), e.port))
		}
		at.links[e.port] = l
	}
	return l
}

// Connect joins two switch ports with a link of the given propagation
// latency.
func (n *Network) Connect(s1 *core.Switch, p1 int, s2 *core.Switch, p2 int, latency sim.Time) *Link {
	return n.addLink(endpoint{sw: s1, port: p1}, endpoint{sw: s2, port: p2}, latency)
}

// Attach joins a host to a switch port. rate is the host NIC rate
// (defaults to the switch's line rate when zero). The host joins the
// switch's domain.
func (n *Network) Attach(h *Host, sw *core.Switch, port int, latency sim.Time) *Link {
	h.rate = sw.Config().LineRate
	h.sched = sw.Scheduler()
	l := n.addLink(endpoint{host: h}, endpoint{sw: sw, port: port}, latency)
	h.link = l
	return l
}

// deliver carries a frame across a link from the given source endpoint.
// It runs in the sending side's domain.
func (n *Network) deliver(l *Link, from endpoint, data []byte) {
	dir := l.side(from)
	c := &l.dir[dir]
	c.Sent++
	if !l.sideUp[dir] {
		c.LostAtSend++
		return
	}
	if l.impair == nil {
		n.propagate(l, dir, data, l.latency)
		return
	}
	// The impairment gets a private copy: a corruptor that flips bytes
	// must not alias a buffer the sender (or a tap) still holds. The copy
	// is lazy — it reuses the link's scratch buffer, valid for the call
	// (propagate copies again into flight-owned storage).
	l.impairBuf = append(l.impairBuf[:0], data...)
	outs := l.impair(l.impairBuf)
	if len(outs) == 0 {
		c.Dropped++
		return
	}
	if len(outs) > 1 {
		c.Duplicated += uint64(len(outs) - 1)
	}
	for _, o := range outs {
		n.propagate(l, dir, o.Data, l.latency+o.ExtraDelay)
	}
}

// propagate puts one frame copy on the wire. Intra-domain it is
// scheduled directly on the destination's wire band; cross-domain it is
// parked in the link mailbox for the next barrier. Either way it fires
// in (arrival time, directed link id, send order) order — the same order
// in every partitioning. The frame bytes are copied into pooled
// flight-owned storage, so the caller's slice is free after the call.
func (n *Network) propagate(l *Link, dir int, data []byte, delay sim.Time) {
	c := &l.dir[dir]
	c.Propagated++
	at := l.sched[dir].Now() + delay
	seq := l.wireSeq[dir]
	l.wireSeq[dir]++
	if l.cross {
		var m *mailFlight
		if k := len(l.mailFree[dir]); k > 0 {
			m = l.mailFree[dir][k-1]
			l.mailFree[dir][k-1] = nil
			l.mailFree[dir] = l.mailFree[dir][:k-1]
		} else {
			m = &mailFlight{n: n, l: l, dir: dir}
		}
		m.at, m.seq = at, seq
		m.buf = append(m.buf[:0], data...)
		l.mail[dir] = append(l.mail[dir], m)
		if !l.mailQueued[dir] {
			l.mailQueued[dir] = true
			d := l.domain[dir] // sending side's domain owns this list
			n.dirtyMail[d] = append(n.dirtyMail[d], mailRef{l: l, dir: dir})
		}
		return
	}
	var f *flight
	if k := len(l.flightFree); k > 0 {
		f = l.flightFree[k-1]
		l.flightFree[k-1] = nil
		l.flightFree = l.flightFree[:k-1]
	} else {
		f = &flight{n: n, l: l}
	}
	f.dir = dir
	f.buf = append(f.buf[:0], data...)
	l.sched[1-dir].AtWireRunner(at, l.wireKey(dir), seq, f)
}

// wireKey is the first wire-band ordering key: the directed link id.
func (l *Link) wireKey(dir int) uint64 { return uint64(l.id)<<1 | uint64(dir) }

// arrive completes one frame's propagation. It runs in the receiving
// side's domain. A Fail while the frame was in flight loses it.
func (n *Network) arrive(l *Link, dir int, data []byte) {
	c := &l.dir[dir]
	to := l.b
	if dir == 1 {
		to = l.a
	}
	if !l.sideUp[1-dir] {
		c.LostInFlight++
		return
	}
	c.Delivered++
	switch {
	case to.host != nil:
		to.host.receive(data)
	default:
		to.sw.Inject(to.port, data)
	}
}

// drainMail moves parked cross-domain frames onto their destination
// domains' wire bands. It runs single-threaded at partition barriers —
// the only phase in which both sides' mail lists may be touched, so this
// is also where spent flights are recycled back to the senders' free
// lists. The barrier is incremental: it walks the per-domain dirty lists
// (filled by propagate and parkSpent during the window) instead of every
// cross link, so barrier cost scales with the frames actually exchanged,
// not with fabric size. The delivery order across links does not matter —
// the wire band is a heap ordered by engine-independent keys — so
// draining dirty lists domain by domain reproduces the full-scan
// behavior exactly.
func (n *Network) drainMail() {
	obs := n.part.Sched(0).Self()
	for d := range n.dirtySpent {
		refs := n.dirtySpent[d]
		for i, r := range refs {
			l, dir := r.l, r.dir
			spent := l.mailSpent[dir]
			l.mailFree[dir] = append(l.mailFree[dir], spent...)
			for j := range spent {
				spent[j] = nil
			}
			l.mailSpent[dir] = spent[:0]
			l.spentQueued[dir] = false
			refs[i] = mailRef{}
		}
		n.dirtySpent[d] = refs[:0]
	}
	for d := range n.dirtyMail {
		refs := n.dirtyMail[d]
		for i, r := range refs {
			l, dir := r.l, r.dir
			l.mailQueued[dir] = false
			refs[i] = mailRef{}
			box := l.mail[dir]
			if len(box) == 0 {
				continue
			}
			if obs != nil {
				obs.MailFrames.Add(uint64(len(box)))
			}
			dst := l.sched[1-dir]
			key := l.wireKey(dir)
			for j, m := range box {
				dst.AtWireRunner(m.at, key, m.seq, m)
				box[j] = nil
			}
			l.mail[dir] = box[:0]
		}
		n.dirtyMail[d] = refs[:0]
	}
}

// Run advances the simulation to until: the partition's window loop when
// partitioned, a plain scheduler run otherwise. On each partitioned Run
// it computes the lookahead (minimum cross-domain link latency),
// installs the per-domain-pair latency matrix that drives the
// partition's adaptive window edges, and registers the mailbox exchange
// at the partition's barriers (first Run only).
func (n *Network) Run(until sim.Time) {
	if n.part == nil {
		n.sched.Run(until)
		return
	}
	lookahead := sim.Time(sim.Forever)
	for _, l := range n.links {
		if !l.cross {
			continue
		}
		if l.impair != nil {
			panic("netsim: impairment on cross-domain link " + l.String() +
				" (impairments keep shared state; keep impaired links inside one domain)")
		}
		if l.latency < lookahead {
			lookahead = l.latency
		}
		n.part.SetCrossLatency(l.domain[0], l.domain[1], l.latency)
		n.part.SetCrossLatency(l.domain[1], l.domain[0], l.latency)
	}
	n.part.SetLookahead(lookahead)
	if !n.hooked {
		n.part.OnBarrier(n.drainMail)
		n.hooked = true
	}
	n.part.Run(until)
}

// Fail takes a link down. Both attached switches see a LinkStatusChange
// event; in-flight and future packets are lost until Repair. On a
// partitioned network a cross-domain link cannot be failed directly —
// the caller runs in one domain and may not touch the other side's
// state; use ScheduleLinkChange, which arms both sides for the same
// virtual instant.
func (n *Network) Fail(l *Link) { n.setLink(l, false) }

// Repair brings a link back up.
func (n *Network) Repair(l *Link) { n.setLink(l, true) }

func (n *Network) setLink(l *Link, up bool) {
	if n.part != nil && l.cross {
		panic("netsim: Fail/Repair on cross-domain link " + l.String() + "; use ScheduleLinkChange")
	}
	if l.sideUp[0] == up && l.sideUp[1] == up {
		return
	}
	l.sideUp[0] = up
	l.sideUp[1] = up
	if l.a.sw != nil {
		l.a.sw.SetLink(l.a.port, up)
	}
	if l.b.sw != nil {
		l.b.sw.SetLink(l.b.port, up)
	}
	if n.OnLinkChange != nil {
		n.OnLinkChange(l, up)
	}
}

// sideLinkChange applies one side's view of a scheduled link transition.
// It runs in that side's domain. The OnLinkChange hook fires once, on
// side a's event.
func (n *Network) sideLinkChange(l *Link, side int, up bool) {
	if l.sideUp[side] == up {
		return
	}
	l.sideUp[side] = up
	e := l.a
	if side == 1 {
		e = l.b
	}
	if e.sw != nil {
		e.sw.SetLink(e.port, up)
	}
	if side == 0 && n.OnLinkChange != nil {
		n.OnLinkChange(l, up)
	}
}

// ScheduleLinkChange arms a link transition (up=false: Fail, up=true:
// Repair) at the absolute time at. On a cross-domain link each side's
// view transitions independently in its own domain at the same virtual
// instant — the deterministic way to fail a link whose endpoints run
// concurrently. fault schedules (internal/faults) arm all their link
// transitions this way.
func (n *Network) ScheduleLinkChange(l *Link, at sim.Time, up bool) {
	if !l.cross {
		l.sched[0].At(at, func() { n.setLink(l, up) })
		return
	}
	l.sched[0].At(at, func() { n.sideLinkChange(l, 0, up) })
	l.sched[1].At(at, func() { n.sideLinkChange(l, 1, up) })
}

// ConnectLeafSpine wires a two-level fabric: tor[i]'s port 1+j connects
// to spine[j]'s port i, for every ToR i and spine j (ToR port 0 is left
// free for hosts). It panics when a switch has too few ports.
func (n *Network) ConnectLeafSpine(tors, spines []*core.Switch, latency sim.Time) {
	for i, tor := range tors {
		if tor.Config().Ports < 1+len(spines) {
			panic(fmt.Sprintf("netsim: ToR %s has %d ports, needs %d",
				tor.Name(), tor.Config().Ports, 1+len(spines)))
		}
		for j, spine := range spines {
			if spine.Config().Ports < len(tors) {
				panic(fmt.Sprintf("netsim: spine %s has %d ports, needs %d",
					spine.Name(), spine.Config().Ports, len(tors)))
			}
			n.Connect(tor, 1+j, spine, i, latency)
		}
	}
}

// Links lists all links.
func (n *Network) Links() []*Link { return n.links }

// LinkAt returns the link on a switch port, or nil.
func (n *Network) LinkAt(sw *core.Switch, port int) *Link {
	if at := n.attachOf(sw); at != nil && port >= 0 && port < len(at.links) {
		return at.links[port]
	}
	return nil
}
