package core

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tm"
)

// WireOverhead is the per-frame wire overhead in bytes beyond the frame
// data the simulator carries: 4 (FCS) + 8 (preamble) + 12 (inter-frame
// gap). It determines both serialization times and the pipeline's
// minimum-packet cycle budget.
const WireOverhead = 24

// minWireBytes is the wire footprint of a minimum-size frame.
const minWireBytes = packet.MinFrameLen + WireOverhead // 84 bytes = 64B frame + 20B overhead

// Config sizes a Switch.
type Config struct {
	// Name identifies the switch in traces and stats.
	Name string
	// Ports is the number of full-duplex ports (default 4, as on the
	// NetFPGA SUME).
	Ports int
	// LineRate is the per-port rate (default 10 Gb/s).
	LineRate sim.Rate
	// Overspeed is the pipeline clock multiplier relative to the exact
	// aggregate minimum-packet rate. 1.0 means one slot per possible
	// minimum packet; modern switch chips run slightly faster than line
	// rate (paper §4), so the default is 1.1.
	Overspeed float64
	// QueueCapBytes bounds each output queue (default 256 KiB).
	QueueCapBytes int
	// QueuesPerPort is output queues per port (default 1).
	QueuesPerPort int
	// Discipline is the TM scheduling discipline.
	Discipline tm.Discipline
	// EventQueueDepth bounds each event FIFO between a source and the
	// Event Merger (default 512).
	EventQueueDepth int
	// PipelineLatency is the ingress-pipeline depth in cycles: the delay
	// between a slot entering the pipeline and its packet reaching the
	// traffic manager (default 16 stages).
	PipelineLatency int
	// MaxEventsPerSlot bounds how many events the merger can attach to
	// one pipeline slot — the metadata bus width of paper §4 ("the
	// pipeline is wide enough to carry all the events"). 0 means one
	// event of every kind fits (a full-width bus).
	MaxEventsPerSlot int
	// NoPiggyback disables the Event Merger's defining trick: events no
	// longer ride packet slots, so every event consumes a dedicated
	// (empty-packet) slot that competes with packets for the pipeline.
	// Only for the ablation; the paper's design always piggybacks.
	NoPiggyback bool
	// MergerPriority overrides the order in which the Event Merger
	// drains event FIFOs into a slot (default: the package-level
	// MergerPriority). Setting it per switch keeps concurrent
	// simulations independent.
	MergerPriority []events.Kind
	// EventOverflow overrides the overflow policy of individual event
	// FIFOs. Kinds not present get the defaults: LinkStatusChange
	// coalesces per port (a flap burst collapses to each port's final
	// state), every other kind drops the newest event when full.
	EventOverflow map[events.Kind]events.OverflowPolicy
	// NoDrainFastForward disables the idle-cycle drain fast-forward for
	// this switch: drain-only stretches then run cycle-by-cycle on the
	// scheduler lane. Differential tests use it to pin the fast path
	// against the slow one; results are identical either way.
	NoDrainFastForward bool
	// NoBurst disables the burst slot loop for this switch: every
	// pipeline slot then costs one full scheduler dispatch (lane arm,
	// next-event scan, lane fire), exactly as before bursting existed.
	// The per-frame path is the burst path's differential oracle; results
	// are byte-identical either way.
	NoBurst bool
}

// burstSlots is the per-wakeup slot budget of the burst loop. The cap
// only bounds latency of the in-callback loop; any value produces
// identical simulation output.
const burstSlots = 64

// burstEngageDepth is how much queued work a wake must hold before the
// burst paths engage their bracketing (aux-lane disarm plus continuation
// proofs). Below the threshold the switch runs the plain single-slot /
// single-delivery path — on lightly loaded fabrics the bracket costs
// more than it saves. The gate reads only deterministic simulation state
// (queue depths), and the single-slot path is the burst datapath's
// byte-identical oracle, so engagement never changes output.
const burstEngageDepth = 2

func (c Config) withDefaults() Config {
	if c.Ports <= 0 {
		c.Ports = 4
	}
	if c.LineRate <= 0 {
		c.LineRate = 10 * sim.Gbps
	}
	if c.Overspeed <= 0 {
		c.Overspeed = 1.1
	}
	if c.QueueCapBytes <= 0 {
		c.QueueCapBytes = 256 << 10
	}
	if c.QueuesPerPort <= 0 {
		c.QueuesPerPort = 1
	}
	if c.EventQueueDepth <= 0 {
		c.EventQueueDepth = 512
	}
	if c.PipelineLatency <= 0 {
		c.PipelineLatency = 16
	}
	if c.MergerPriority == nil {
		c.MergerPriority = MergerPriority
	}
	return c
}

// MergerPriority is the order in which the Event Merger drains event
// FIFOs into a slot: most urgent first (paper §4 raises exactly this
// scheduling question; this is the default the prototype uses).
var MergerPriority = []events.Kind{
	events.BufferDequeue,
	events.BufferEnqueue,
	events.BufferOverflow,
	events.BufferUnderflow,
	events.PacketTransmitted,
	events.LinkStatusChange,
	events.TimerExpiration,
	events.ControlPlaneTriggered,
	events.UserEvent,
}

// Stats counts a switch's lifetime activity.
type Stats struct {
	RxPackets, RxBytes uint64
	TxPackets, TxBytes uint64
	RxDropped          uint64 // arrived on a downed link
	TxDroppedLinkDown  uint64
	PipelineDrops      uint64 // dropped by the program's decision
	Cycles             uint64
	PacketSlots        uint64 // slots carrying a real packet
	EmptySlots         uint64 // injected empty packets (metadata carriers)
	DrainSlots         uint64 // cycles run purely to drain aggregation
	EventsMerged       [events.NumKinds]uint64
	EventsDropped      [events.NumKinds]uint64 // FIFO-full losses
	EventsCoalesced    [events.NumKinds]uint64 // merged into a pending same-port event
	EventsShed         [events.NumKinds]uint64 // evicted oldest under DropOldest pressure
	Recirculated       uint64
	Generated          uint64
}

// SlotInfo describes one executed pipeline slot for tracing.
type SlotInfo struct {
	Cycle   uint64
	At      sim.Time
	PktKind events.Kind // IngressPacket/RecirculatedPacket/GeneratedPacket
	PktLen  int         // 0 for empty metadata slots
	Empty   bool
	Events  []events.Kind // non-packet events merged into the slot
}

// genTemplate is a periodic packet-generator configuration.
type genTemplate struct {
	every  sim.Time
	make   func(seq uint64) ([]byte, int) // returns frame and suggested port (-1: route in pipeline)
	seq    uint64
	ticker *sim.Ticker
}

// Switch is one switch instance: the datapath of Figure 4 attached to a
// scheduler. Create with New, load a Program with Load, feed packets with
// Inject (or connect links in internal/netsim), then run the scheduler.
type Switch struct {
	cfg   Config
	arch  *Arch
	sched *sim.Scheduler
	prog  *pisa.Program

	cycleTime   sim.Time
	nextCycleAt sim.Time
	cycleIdx    uint64
	cycleLane   *sim.Lane
	noFF        bool
	noBurst     bool
	// inBurst is set while the burst slot loop (or the aux lane's inline
	// drain) is executing. While set, the aux lane is kept disarmed and
	// conveyor mutations skip the arm-if-earlier bookkeeping: the loop
	// consults auxMin directly with each entry's exact (at, seq), so the
	// per-entry lane churn would be overwritten before anything could
	// observe it. Every exit path re-establishes the armed-at-minimum
	// invariant with auxArm before control returns to the scheduler, and
	// fastForwardDrain bounds its stretch by auxMin explicitly so the
	// hidden lane cannot widen the drain horizon.
	inBurst bool

	// slotNow/slotCycle snapshot the (time, cycle) pair at the top of the
	// last runCycle. During a drain fast-forward the registers' cycles run
	// ahead of the scheduler clock; telemetry reconstructs each drained
	// delta's virtual timestamp as slotNow + (regCycle-slotCycle)*cycleTime.
	slotNow   sim.Time
	slotCycle uint64

	// pool recycles every packet the switch materializes (rx copies,
	// generated frames): the steady-state forward path allocates nothing.
	pool *packet.Pool

	rxq        [][]*packet.Packet
	rxHead     []int
	rxRR       int
	rxPending  int // packets queued across rxq (kept so work checks are O(1))
	recirc     pktFIFO
	lastRecirc bool
	genq       pktFIFO

	evq [events.NumKinds]*events.Queue
	// evMask has bit k set while evq[k] is non-empty; prioMask has bit k
	// set for kinds the merger actually drains (cfg.MergerPriority). The
	// pair makes the per-slot event scan and the wake predicate O(1) when
	// no events are pending — the common case in burst stretches.
	evMask   uint32
	prioMask uint32
	// handled has bit k set for kinds the architecture exposes and the
	// loaded program binds (derived at Load; zero before). Events of any
	// other kind are discarded at the source, and the TM is told not to
	// build them at all (tm.TM.Muted).
	handled uint32
	// slotEvents/slotKinds are the events the merger attached to the slot
	// being executed. A slot reads only the [0:n) it gathered, so they are
	// reused without clearing, and nothing reads them between slots: they
	// are scratch, not checkpoint state.
	slotEvents [events.NumKinds]events.Event
	slotKinds  [events.NumKinds]events.Kind

	// tmReqs is the scratch vector for bulk TM enqueues (finishSlot's
	// generated-packet fan-out); tmPkts parallels it. tmResult is the
	// per-item reaction, bound once so EnqueueN calls allocate nothing.
	tmReqs   []tm.EnqueueReq
	tmPkts   []*packet.Packet
	tmResult func(i int, ok bool)

	tmgr   *tm.TM
	linkUp []bool
	txBusy []bool
	txPkt  []*packet.Packet // packet on the wire per port
	evSeq  uint64

	// The conveyor: the switch's own future work — pipeline-latency
	// deliveries to the TM and per-port tx completions — kept out of the
	// scheduler's heap. Every entry is stamped with the exact (at, seq)
	// coordinates the equivalent scheduler event would have had (the seq
	// is drawn from the shared counter at schedule time), and the aux
	// lane is armed at the earliest entry's coordinates, so firing order
	// against heap events, wire arrivals, and other lanes is byte-
	// identical to per-event scheduling. The burst loop fires due entries
	// inline, skipping the per-event dispatch entirely.
	pipeQ    []pipeEntry // FIFO in (at, seq): slot → TM deliveries
	pipeHead int         // index of the conveyor's earliest entry
	txPend   []txDone    // pending tx completions: unordered, at most one per port
	auxLane  *sim.Lane   // fires the earliest conveyor entry
	// auxIdx says which entry the aux lane is armed for — an index into
	// txPend, or -1 for the pipe head — so auxRun need not search for it.
	// Valid whenever the lane is armed: entries move only in auxFire, and
	// every path out of it re-arms through auxArm.
	auxIdx int

	emptyPkt packet.Packet   // reused metadata-carrier slot packet
	egrFree  []*pisa.Context // free list of egress contexts (pump re-enters)

	timers []*sim.Ticker
	gens   []*genTemplate

	ctx pisa.Context

	// OnTransmit, when set, receives each packet as its last byte
	// leaves the given port (netsim uses it to drive links).
	OnTransmit func(port int, pkt *packet.Packet)

	// OnDrop, when set, observes packets the switch discards with the
	// reason ("tm-overflow", "pipeline-drop", "link-down", ...).
	OnDrop func(pkt *packet.Packet, reason string)

	// OnSlot, when set, observes every executed pipeline slot (cycle
	// trace). It costs a call per cycle; leave nil in experiments.
	OnSlot func(info SlotInfo)

	stats Stats

	// tel is the switch's telemetry probe (nil until EnableTelemetry).
	// Every probe point below is a nil-guarded field access, so the
	// disabled path stays allocation- and branch-predictor-friendly.
	tel        *telemetry.SwitchProbe
	telCol     *telemetry.Collector
	telSampler *sim.Ticker
}

// New builds a switch on the given scheduler with the given architecture.
func New(cfg Config, arch *Arch, sched *sim.Scheduler) *Switch {
	cfg = cfg.withDefaults()
	s := &Switch{cfg: cfg, arch: arch, sched: sched, pool: packet.NewPool()}
	s.pool.Self = sched.Self()
	s.noFF = cfg.NoDrainFastForward
	s.noBurst = cfg.NoBurst
	for _, k := range cfg.MergerPriority {
		s.prioMask |= 1 << uint(k)
	}

	perPortMin := cfg.LineRate.ByteTime(minWireBytes)
	s.cycleTime = sim.Time(float64(perPortMin) / (float64(cfg.Ports) * cfg.Overspeed))
	if s.cycleTime < 1 {
		s.cycleTime = 1
	}

	s.cycleLane = sched.NewLane(s.runCycle)
	s.auxLane = sched.NewLane(s.auxRun)
	s.rxq = make([][]*packet.Packet, cfg.Ports)
	s.rxHead = make([]int, cfg.Ports)
	s.linkUp = make([]bool, cfg.Ports)
	s.txBusy = make([]bool, cfg.Ports)
	s.txPkt = make([]*packet.Packet, cfg.Ports)
	s.txPend = make([]txDone, 0, cfg.Ports)
	for i := range s.linkUp {
		s.linkUp[i] = true
	}
	for k := 0; k < events.NumKinds; k++ {
		kind := events.Kind(k)
		s.evq[k] = events.NewQueue(kind, cfg.EventQueueDepth)
		pol, ok := cfg.EventOverflow[kind]
		if !ok && kind == events.LinkStatusChange {
			pol = events.CoalescePort
		}
		s.evq[k].SetPolicy(pol)
	}
	s.tmgr = tm.New(tm.Config{
		Ports:         cfg.Ports,
		QueuesPerPort: cfg.QueuesPerPort,
		QueueCapBytes: cfg.QueueCapBytes,
		Discipline:    cfg.Discipline,
	})
	s.tmgr.OnEvent = s.pushEvent
	s.tmgr.Muted = ^s.handled
	s.tmResult = s.bulkEnqueueResult
	return s
}

// bulkEnqueueResult is finishSlot's per-item EnqueueN reaction: admitted
// packets start their port's transmitter, rejected ones take the same
// drop path enqueueOut would have taken.
func (s *Switch) bulkEnqueueResult(i int, ok bool) {
	if ok {
		s.pump(s.tmReqs[i].Port)
		return
	}
	pkt := s.tmPkts[i]
	if s.OnDrop != nil {
		s.OnDrop(pkt, "tm-overflow")
	}
	pkt.Release()
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.cfg.Name }

// Config returns the effective configuration.
func (s *Switch) Config() Config { return s.cfg }

// Scheduler returns the scheduler driving this switch. In a partitioned
// simulation (sim.Partition) it identifies the switch's domain: every
// event the switch schedules — pipeline cycles, timers, generators,
// transmit completions — lands on this scheduler, so a switch built on a
// partition domain runs entirely within that domain. The switch keeps no
// cross-switch mutable state; all inter-switch interaction flows through
// netsim links, which is what makes domain-parallel execution safe.
func (s *Switch) Scheduler() *sim.Scheduler { return s.sched }

// Arch returns the switch's architecture description.
func (s *Switch) Arch() *Arch { return s.arch }

// CycleTime returns the pipeline clock period.
func (s *Switch) CycleTime() sim.Time { return s.cycleTime }

// TM exposes the traffic manager (monitors read occupancancies from it).
func (s *Switch) TM() *tm.TM { return s.tmgr }

// Program returns the loaded program (nil before Load).
func (s *Switch) Program() *pisa.Program { return s.prog }

// Stats returns a snapshot of the switch's counters.
func (s *Switch) Stats() Stats { return s.stats }

// Load installs a program after validating it against the architecture.
// The set of event kinds the program handles is fixed here: bind every
// handler before loading.
func (s *Switch) Load(p *pisa.Program) error {
	if err := s.arch.Validate(p); err != nil {
		return err
	}
	s.prog = p
	s.handled = 0
	for k := 0; k < events.NumKinds; k++ {
		if kind := events.Kind(k); s.arch.Supports(kind) && p.Handles(kind) {
			s.handled |= 1 << uint(k)
			// A kind the merger never drains (the packet events) is
			// offered only by InjectEvent storms: its ring can wait.
			if s.prioMask&(1<<uint(k)) != 0 {
				s.evq[k].Reserve()
			}
		}
	}
	s.tmgr.Muted = ^s.handled
	s.instrumentRegisters()
	return nil
}

// MustLoad is Load that panics on error, for experiment setup code.
func (s *Switch) MustLoad(p *pisa.Program) {
	if err := s.Load(p); err != nil {
		panic(err)
	}
}

// --- event sources -------------------------------------------------------

// pushEvent routes an event from any source — traffic manager, timers,
// link monitor, control plane, handlers — into the merger's FIFOs when the
// architecture exposes its kind and the program subscribes. It stamps
// e.Seq; the FIFO copies *e, so the source may reuse it at once.
func (s *Switch) pushEvent(e *events.Event) {
	if s.handled&(1<<uint(e.Kind)) == 0 {
		return
	}
	e.Seq = s.evSeq
	s.evSeq++
	out := s.evq[e.Kind].OfferRef(e)
	// Whatever the outcome, the FIFO is non-empty now: stored/coalesced
	// added or updated state, and a drop means it was already full.
	s.evMask |= 1 << uint(e.Kind)
	if s.tel != nil {
		s.tel.ObserveOffer(s.sched.Now(), *e, out)
	}
	switch out {
	case events.Coalesced:
		s.stats.EventsCoalesced[e.Kind]++
	case events.StoredShed:
		s.stats.EventsShed[e.Kind]++
	case events.Dropped:
		s.stats.EventsDropped[e.Kind]++
		return
	}
	s.wake()
}

// InjectEvent offers an event directly to the merger's FIFOs, bypassing
// the hardware sources. It models a misbehaving or saturated event
// source; internal/faults uses it for event-queue pressure storms. The
// event is subject to the same architecture/program gating and overflow
// policy as any other, and ok reports whether its state survived
// (stored or coalesced).
func (s *Switch) InjectEvent(e events.Event) (ok bool) {
	if s.handled&(1<<uint(e.Kind)) == 0 {
		return false
	}
	before := s.evq[e.Kind].Drops()
	s.pushEvent(&e)
	return s.evq[e.Kind].Drops() == before
}

// Inject delivers a fully received frame to an input port (the caller
// models wire timing). Frames arriving on a downed link are lost. The
// frame bytes are copied into a pooled packet before Inject returns, so
// the caller is free to reuse its buffer.
func (s *Switch) Inject(port int, data []byte) {
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("core: inject on invalid port %d", port))
	}
	if !s.linkUp[port] {
		s.stats.RxDropped++
		return
	}
	s.stats.RxPackets++
	s.stats.RxBytes += uint64(len(data))
	s.rxq[port] = append(s.rxq[port], s.pool.GetCopy(data, port))
	s.rxPending++
	s.wake()
}

// ConfigureTimer arms hardware timer id to fire TimerExpiration events
// with the given period. It errors if the architecture lacks timers or
// the id is out of range. Reconfiguring an armed timer replaces it.
func (s *Switch) ConfigureTimer(id int, period sim.Time) error {
	if s.arch.Timers == 0 {
		return fmt.Errorf("core: architecture %q has no timer block", s.arch.Name)
	}
	if id < 0 || id >= s.arch.Timers {
		return fmt.Errorf("core: timer id %d out of range (%d timers)", id, s.arch.Timers)
	}
	for len(s.timers) <= id {
		s.timers = append(s.timers, nil)
	}
	if s.timers[id] != nil {
		s.timers[id].Stop()
	}
	s.timers[id] = s.sched.Every(period, func() {
		s.pushEvent(&events.Event{
			Kind: events.TimerExpiration, When: s.sched.Now(), TimerID: id, Port: -1,
		})
	})
	return nil
}

// StopTimer disarms timer id.
func (s *Switch) StopTimer(id int) {
	if id >= 0 && id < len(s.timers) && s.timers[id] != nil {
		s.timers[id].Stop()
		s.timers[id] = nil
	}
}

// AddGenerator configures the packet generator to emit a frame every
// period. mk builds each frame and names the output port, or -1 to let
// the pipeline route it (the frame then traverses the pipeline as a
// GeneratedPacket event). The returned frame is copied into a pooled
// packet before the next tick, so mk may reuse a scratch buffer. It
// errors when the architecture has no generator block.
func (s *Switch) AddGenerator(period sim.Time, mk func(seq uint64) (data []byte, port int)) error {
	if !s.arch.Generator {
		return fmt.Errorf("core: architecture %q has no packet generator", s.arch.Name)
	}
	g := &genTemplate{every: period, make: mk}
	s.gens = append(s.gens, g)
	g.ticker = s.sched.Every(period, func() {
		data, port := g.make(g.seq)
		g.seq++
		if data == nil {
			return
		}
		s.stats.Generated++
		pkt := s.pool.GetCopy(data, -1)
		pkt.Gen = true
		if port >= 0 {
			// Direct injection to the TM, as when the generator is
			// configured with a fixed output port.
			s.enqueueOut(pkt, port, 0, 0, flowHashOf(data))
			return
		}
		s.genq.push(pkt)
		s.wake()
	})
	return nil
}

// StopGenerators halts every configured packet generator.
func (s *Switch) StopGenerators() {
	for _, g := range s.gens {
		g.ticker.Stop()
	}
	s.gens = nil
}

// SetLink changes a port's link status, raising a LinkStatusChange event.
func (s *Switch) SetLink(port int, up bool) {
	if s.linkUp[port] == up {
		return
	}
	s.linkUp[port] = up
	s.pushEvent(&events.Event{
		Kind: events.LinkStatusChange, When: s.sched.Now(), Port: port, Up: up,
	})
	if up {
		s.pump(port)
	}
}

// LinkIsUp reports a port's link status.
func (s *Switch) LinkIsUp(port int) bool { return s.linkUp[port] }

// TriggerControlEvent injects a ControlPlaneTriggered event carrying an
// opaque payload (the control plane's side channel into the data plane).
func (s *Switch) TriggerControlEvent(data uint64) {
	s.pushEvent(&events.Event{
		Kind: events.ControlPlaneTriggered, When: s.sched.Now(), Data: data, Port: -1,
	})
}

// --- the event merger and pipeline ---------------------------------------

func (s *Switch) havePacketWork() bool {
	return s.rxPending > 0 || s.recirc.len() > 0 || s.genq.len() > 0
}

// packetBacklog is the number of packets queued for pipeline slots; the
// burst loop engages only when it promises more than one slot of inline
// work (see burstEngageDepth).
func (s *Switch) packetBacklog() int {
	return s.rxPending + s.recirc.len() + s.genq.len()
}

// conveyorDepth is the number of pending conveyor entries (pipeline-
// latency deliveries plus tx completions); the aux lane's inline burst
// continuation engages only when at least burstEngageDepth entries are
// queued.
func (s *Switch) conveyorDepth() int {
	return len(s.pipeQ) - s.pipeHead + len(s.txPend)
}

func (s *Switch) haveEventWork() bool {
	return s.evMask&s.prioMask != 0
}

func (s *Switch) haveDrainWork() bool {
	if s.prog == nil {
		return false
	}
	for _, r := range s.prog.Registers() {
		if r.Backlog() > 0 {
			return true
		}
	}
	return false
}

// wake arms the next pipeline cycle if work is pending. The cycle runs
// on a scheduler lane: re-arming is two field writes, so bursts of
// back-to-back cycles never touch the event heap and never allocate.
func (s *Switch) wake() {
	if s.cycleLane.Armed() {
		return
	}
	if !s.havePacketWork() && !s.haveEventWork() && !s.haveDrainWork() {
		return
	}
	at := s.nextCycleAt
	if now := s.sched.Now(); at < now {
		at = now
	}
	s.cycleLane.ArmAt(at)
}

// pktFIFO is a packet queue popped by head index. The backing array is
// reused once the queue empties and compacted once the dead prefix
// outweighs the live tail, so steady-state push/pop allocates nothing;
// popped slots are cleared so they never pin a released packet.
type pktFIFO struct {
	q    []*packet.Packet
	head int
}

func (f *pktFIFO) len() int { return len(f.q) - f.head }

func (f *pktFIFO) push(pkt *packet.Packet) { f.q = append(f.q, pkt) }

// live returns the queued packets, oldest first.
func (f *pktFIFO) live() []*packet.Packet { return f.q[f.head:] }

func (f *pktFIFO) reset() { f.q, f.head = f.q[:0], 0 }

func (f *pktFIFO) pop() *packet.Packet {
	pkt := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.reset()
	} else if f.head >= 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	return pkt
}

// popPacket selects the slot's packet by merger priority: recirculated,
// then input ports (round-robin), then generated. Recirculated packets
// get at most every other slot when fresh arrivals are waiting, bounding
// the recirculation bandwidth the way real recirculation ports do (a
// program that recirculates forever cannot starve the wire).
func (s *Switch) popPacket() (*packet.Packet, events.Kind, bool) {
	rxPending := s.rxPending > 0
	if s.recirc.len() > 0 && !(s.lastRecirc && rxPending) {
		s.lastRecirc = true
		return s.recirc.pop(), events.RecirculatedPacket, true
	}
	s.lastRecirc = false
	if rxPending {
		for i := 0; i < s.cfg.Ports; i++ {
			p := (s.rxRR + i) % s.cfg.Ports
			if s.rxHead[p] < len(s.rxq[p]) {
				pkt := s.rxq[p][s.rxHead[p]]
				s.rxq[p][s.rxHead[p]] = nil
				s.rxHead[p]++
				if s.rxHead[p] == len(s.rxq[p]) {
					s.rxq[p] = s.rxq[p][:0]
					s.rxHead[p] = 0
				}
				s.rxRR = (p + 1) % s.cfg.Ports
				s.rxPending--
				return pkt, events.IngressPacket, true
			}
		}
	}
	if s.genq.len() > 0 {
		return s.genq.pop(), events.GeneratedPacket, true
	}
	return nil, 0, false
}

// runCycle fires on the cycle lane. It executes one pipeline slot, then —
// the burst datapath — keeps executing consecutive slots inside the same
// scheduler callback for as long as it can prove the scheduler would have
// done nothing in between: work is still pending, no event (packet
// arrival, tx completion, timer, partition barrier) is due at or before
// the next slot's instant, and the next slot sits inside the active run
// horizon. Each proven slot advances the clock with sim.AdvanceTo and
// runs inline, skipping the lane re-arm, next-event scan, and lane fire
// that the per-slot path pays per cycle. The slot bodies are identical,
// every slot still observes the correct Now() and cycle index, and the
// burst stops the moment the proof fails, so all output is byte-identical
// to the NoBurst per-slot path (the differential oracle); only absolute —
// never relative — scheduler sequence numbers differ. A pure drain slot
// ends the burst: it already fast-forwards the whole drain stretch.
//
// Telemetry cycle counts are batched into one probe update per burst;
// per-slot trace emissions and outcome counters are unchanged, and no
// sampler can observe the counters mid-callback, so the batching is
// invisible in all telemetry output.
func (s *Switch) runCycle() {
	slots := uint64(0)
	stop := false
	// Adaptive engagement: the bracket (aux-lane disarm/re-arm) and the
	// per-slot continuation proofs only pay for themselves when this wake
	// plausibly holds several back-to-back slots. A light wake — fewer
	// than burstEngageDepth packets queued — runs the plain single-slot
	// path, which is the per-event oracle, so the gate can depend on any
	// deterministic simulation state without affecting output.
	budget := 1
	if !s.noBurst && s.packetBacklog() >= burstEngageDepth {
		budget = burstSlots
	}
	if budget > 1 {
		s.inBurst = true
		s.auxLane.Disarm()
	}
	for n := 1; ; n++ {
		drained := s.runSlot()
		slots++
		if drained || n >= budget {
			break
		}
		if !s.havePacketWork() && !s.haveEventWork() && !s.haveDrainWork() {
			break
		}
		next := s.nextCycleAt
		limit, strict := s.sched.RunBound()
		if next > limit || (strict && next == limit) {
			break
		}
		// Deliver the switch's own conveyor work due before (or at) the
		// next slot inline: each pipeline-latency delivery or tx completion
		// whose (at, seq) precedes everything the scheduler holds is
		// exactly the event the scheduler would fire next, so running it
		// here — with the clock advanced to its instant — reproduces the
		// per-event schedule while skipping the dispatch. An entry at the
		// slot's own instant drew its seq at least one cycle earlier than
		// any arm of the cycle lane, so conveyor-before-slot is the heap
		// order too. The moment something else precedes (another switch's
		// lane, a wire arrival, a timer) or the run horizon intervenes, the
		// burst ends and the scheduler resumes ordinary dispatch.
		for {
			at, seq, idx, ok := s.auxMin()
			if !ok || at > next {
				break
			}
			if at > limit || (strict && at == limit) || s.sched.NextBefore(at, seq) {
				stop = true
				break
			}
			s.sched.AdvanceTo(at)
			s.auxFire(idx)
		}
		if stop {
			break
		}
		if s.cycleLane.Armed() {
			// A wake during this slot or an inline conveyor delivery armed
			// our own cycle lane for the next slot — the firing this loop
			// is about to perform inline. Take the arm over: with nothing
			// in the scheduler preceding its exact (at, seq), disarming and
			// running the slot here reproduces the lane dispatch verbatim.
			lat, lseq, _ := s.cycleLane.ArmedAt()
			if lat != next || s.sched.NextBefore(lat, lseq) {
				break
			}
			s.cycleLane.Disarm()
		} else if na, ok := s.sched.NextAt(); ok && na <= next {
			break
		}
		s.sched.AdvanceTo(next)
	}
	if s.inBurst {
		s.inBurst = false
		s.auxArm()
	}
	if s.tel != nil {
		s.tel.Cycles.Add(slots)
	}
	if p := s.sched.Self(); p != nil {
		p.BurstOcc.Observe(slots)
	}
	s.wake()
}

// runSlot executes one pipeline cycle: the Event Merger forms a slot
// (packet plus up to one event per kind), the program's handlers run, and
// the aggregation registers drain with leftover bandwidth. It reports
// whether the slot was a pure drain cycle (which fast-forwards the whole
// drain stretch and therefore terminates a burst).
func (s *Switch) runSlot() (drained bool) {
	now := s.sched.Now()
	s.cycleIdx++
	s.nextCycleAt = now + s.cycleTime
	s.stats.Cycles++

	cycle := s.cycleIdx
	s.slotNow, s.slotCycle = now, cycle
	if s.prog != nil {
		s.prog.Tick(cycle)
	}

	// In the ablation's no-piggyback mode, a slot with pending events
	// carries only events (an empty packet), and packets wait.
	var nEvents int
	var pkt *packet.Packet
	var pktKind events.Kind
	var havePkt bool
	if s.cfg.NoPiggyback {
		nEvents = s.gatherEvents()
		if nEvents == 0 {
			pkt, pktKind, havePkt = s.popPacket()
		}
	} else {
		pkt, pktKind, havePkt = s.popPacket()
		nEvents = s.gatherEvents()
	}

	switch {
	case havePkt:
		s.stats.PacketSlots++
		if s.tel != nil {
			s.tel.ObserveSlotStart(now, cycle, pktKind, true)
		}
	case nEvents > 0:
		// No packet on the wire: the merger injects an empty packet to
		// carry the event metadata (paper §5). The carrier is reused
		// across slots — it never leaves the pipeline (finishSlot skips
		// packet-less slots), so one struct per switch suffices.
		s.emptyPkt = packet.Packet{Empty: true, InPort: -1}
		pkt = &s.emptyPkt
		s.stats.EmptySlots++
		if s.tel != nil {
			s.tel.ObserveSlotStart(now, cycle, pktKind, false)
		}
	default:
		// Pure drain cycle: spare bandwidth applies aggregated updates.
		s.stats.DrainSlots++
		if s.tel != nil {
			s.tel.DrainSlots.Inc()
		}
		if s.prog != nil {
			s.prog.EndCycle()
			if !s.noFF {
				s.fastForwardDrain(now)
			}
		}
		return true
	}

	if s.OnSlot != nil {
		info := SlotInfo{Cycle: cycle, At: now, PktKind: pktKind, PktLen: pkt.Len(), Empty: pkt.Empty}
		for i := 0; i < nEvents; i++ {
			info.Events = append(info.Events, s.slotKinds[i])
		}
		s.OnSlot(info)
	}

	ctx := &s.ctx
	pktEv := events.Event{Kind: pktKind, When: now, Port: pkt.InPort, PktLen: pkt.Len()}
	ctx.Reset(pkt, &pktEv, now, cycle)

	// The parsed flow and its hash outlive the handlers: the enqueue
	// annotation reuses the hash unless a handler replaced ctx.Flow.
	var parsed packet.Flow
	var parsedOK bool
	var parsedHash uint64
	if havePkt && s.prog != nil {
		parseSlot(ctx)
		parsed, parsedOK = ctx.Flow, ctx.FlowOK
		if parsedOK {
			// Packet events carry the flow hash, like the paper's
			// ingress logic initializing enq_meta.flowID.
			parsedHash = parsed.Hash()
			ctx.Ev.FlowHash = parsedHash
		}
		if s.prog.Handles(pktKind) {
			s.stats.EventsMerged[pktKind]++
			if s.tel != nil {
				s.tel.Merged[pktKind].Inc()
			}
			s.prog.Apply(ctx)
		}
	}
	if s.prog != nil {
		for i := 0; i < nEvents; i++ {
			ctx.Ev = s.slotEvents[i]
			k := s.slotKinds[i]
			s.stats.EventsMerged[k]++
			if s.tel != nil {
				s.tel.Merged[k].Inc()
				s.tel.ObserveMerge(now, cycle, ctx.Ev, havePkt)
			}
			s.prog.Apply(ctx)
		}
	}

	var fh uint64
	if ctx.FlowOK {
		fh = parsedHash
		if !parsedOK || ctx.Flow != parsed {
			fh = ctx.Flow.Hash()
		}
	}
	s.finishSlot(ctx, havePkt, fh)

	if s.prog != nil {
		s.prog.EndCycle()
	}
	return false
}

// gatherEvents pops the slot's events — at most one per kind, in merger
// priority order, up to the metadata bus width — straight from their
// FIFOs into the slot scratch, and returns how many it took.
func (s *Switch) gatherEvents() (n int) {
	if s.evMask&s.prioMask == 0 {
		return 0
	}
	maxEv := s.cfg.MaxEventsPerSlot
	for _, k := range s.cfg.MergerPriority {
		if maxEv > 0 && n >= maxEv {
			break
		}
		if s.evMask&(1<<uint(k)) == 0 {
			continue
		}
		q := s.evq[k]
		if q.PopInto(&s.slotEvents[n]) {
			s.slotKinds[n] = k
			n++
		}
		if q.Len() == 0 {
			s.evMask &^= 1 << uint(k)
		}
	}
	return n
}

// parseSlot decodes the context's packet once; the 5-tuple comes from the
// layers just decoded (packet.Parser.Flow), not from a second walk.
func parseSlot(ctx *pisa.Context) {
	_ = ctx.Parsed.Decode(ctx.Pkt.Data, &ctx.Decoded)
	ctx.Flow, ctx.FlowOK = ctx.Parsed.Flow(ctx.Pkt.Data, ctx.Decoded)
}

// fastForwardDrain batches a drain-only stretch: having just executed a
// pure drain cycle at now, it computes how many further consecutive cycles
// could only ever be drain cycles — no scheduler event (which might
// deliver a packet or raise an event) fires strictly before each of them,
// and the active Run/RunBefore horizon is respected — and replays them in
// one DrainN call per register instead of re-arming the cycle lane once
// per cycle. DrainN reproduces the exact per-cycle round-robin drain
// order, per-delta lag values and drain-hook callbacks, and the counters
// below advance exactly as if each cycle had run, so every observable
// (stats, telemetry, staleness histograms, partitioned windows) is
// byte-identical to the slow path.
//
// The bound is conservative in exactly the right way: a cycle at
// now + k*cycleTime may be replayed only while k*cycleTime stays strictly
// below the next pending event (an event firing at or before a cycle's
// instant could schedule packet work for it, and at equal instants the
// event fires first — it was scheduled before the lane re-armed), and
// while the cycle stays inside the scheduler's current run horizon
// (inclusive for Run, strict for RunBefore) so windowed partitioned
// execution pauses at the same cycle it would have.
func (s *Switch) fastForwardDrain(now sim.Time) {
	if !s.haveDrainWork() {
		return
	}
	ct := int64(s.cycleTime)
	maxK := int64(1) << 62
	if na, ok := s.sched.NextAt(); ok {
		if na <= now {
			return
		}
		if k := (int64(na-now) - 1) / ct; k < maxK {
			maxK = k
		}
	}
	// The conveyor is its own horizon source: mid-burst the aux lane is
	// hidden from NextAt, so consult the entries directly. Outside a burst
	// the lane is armed at exactly this minimum and the bound repeats the
	// NextAt clamp verbatim.
	if at, _, _, ok := s.auxMin(); ok {
		if at <= now {
			return
		}
		if k := (int64(at-now) - 1) / ct; k < maxK {
			maxK = k
		}
	}
	if limit, strict := s.sched.RunBound(); limit != sim.Forever {
		d := int64(limit - now)
		if strict {
			d--
		}
		if d < 0 {
			d = 0
		}
		if k := d / ct; k < maxK {
			maxK = k
		}
	}
	if maxK <= 0 {
		return
	}
	// Each register fast-forwards independently from the shared current
	// cycle; the stretch consumed is the longest any register needed
	// (shorter ones simply have no backlog left — their remaining cycles
	// are no-ops in the slow path too, and the next prog.Tick re-aligns
	// them).
	var used uint64
	for _, r := range s.prog.Registers() {
		if u := r.DrainN(uint64(maxK)); u > used {
			used = u
		}
	}
	if used == 0 {
		return
	}
	s.cycleIdx += used
	s.stats.Cycles += used
	s.stats.DrainSlots += used
	if s.tel != nil {
		s.tel.Cycles.Add(used)
		s.tel.DrainSlots.Add(used)
	}
	s.nextCycleAt = now + sim.Time(used+1)*s.cycleTime
}

// finishSlot applies the slot's side effects: user events, generated
// packets, recirculation, and the forwarding decision (flowHash annotates
// the packet's enqueue/dequeue events).
func (s *Switch) finishSlot(ctx *pisa.Context, havePkt bool, flowHash uint64) {
	for i := range ctx.Raised {
		s.pushEvent(&ctx.Raised[i])
	}
	if len(ctx.Generated) > 0 {
		// Materialize the slot's generated packets, then hand the ones
		// with explicit ports to the TM in one bulk call. EnqueueN runs
		// the per-packet reaction (pump / drop) between items exactly
		// where a per-packet Enqueue loop would, so event sequence
		// numbers and transmit timings are unchanged.
		s.tmReqs = s.tmReqs[:0]
		s.tmPkts = s.tmPkts[:0]
		for _, g := range ctx.Generated {
			s.stats.Generated++
			pkt := s.pool.GetCopy(g.Data, -1)
			pkt.Gen = true
			if g.Port >= 0 && g.Port < s.cfg.Ports {
				s.tmReqs = append(s.tmReqs, tm.EnqueueReq{
					Pkt: pkt, Port: g.Port, FlowHash: flowHashOf(g.Data),
				})
				s.tmPkts = append(s.tmPkts, pkt)
			} else {
				s.genq.push(pkt)
			}
		}
		if len(s.tmReqs) > 0 {
			s.tmgr.EnqueueN(s.tmReqs, s.sched.Now(), s.tmResult)
		}
	}
	if !havePkt {
		return
	}
	pkt := ctx.Pkt
	if ctx.Recirculate {
		cl := pkt
		cl.Recirc++
		s.stats.Recirculated++
		s.recirc.push(cl)
		return
	}
	if ctx.EgressPort == pisa.PortDrop {
		s.stats.PipelineDrops++
		if s.OnDrop != nil {
			s.OnDrop(pkt, "pipeline-drop")
		}
		pkt.Release()
		return
	}
	if ctx.EgressPort < 0 || ctx.EgressPort >= s.cfg.Ports {
		s.stats.PipelineDrops++
		if s.OnDrop != nil {
			s.OnDrop(pkt, "bad-egress-port")
		}
		pkt.Release()
		return
	}
	s.enqueueOutDelayed(pkt, ctx.EgressPort, ctx.Queue, ctx.Rank, flowHash)
}

// pipeEntry is one packet riding the pipeline conveyor: the
// pipeline-latency delay between its slot and the traffic manager. The
// entry's (at, seq) are the exact coordinates the equivalent scheduler
// event would have carried — at is slot time + PipelineLatency cycles,
// seq was drawn from the shared counter when the slot finished — so the
// conveyor is FIFO in (at, seq) by construction.
type pipeEntry struct {
	pkt            *packet.Packet
	port, q        int
	rank, flowHash uint64
	at             sim.Time
	seq            uint64
}

// txDone is one port's pending tx completion: the conveyor entry for the
// packet on that port's wire, with the (at, seq) coordinates the
// equivalent scheduler event would have carried.
type txDone struct {
	at   sim.Time
	seq  uint64
	port int
}

// enqueueOutDelayed models the pipeline's depth: the packet reaches the
// traffic manager PipelineLatency cycles after its slot. The handoff is
// a conveyor append — no heap event, no allocation.
func (s *Switch) enqueueOutDelayed(pkt *packet.Packet, port, q int, rank, flowHash uint64) {
	at := s.sched.Now() + sim.Time(s.cfg.PipelineLatency)*s.cycleTime
	seq := s.sched.NextSeq()
	s.pipeQ = append(s.pipeQ, pipeEntry{
		pkt: pkt, port: port, q: q, rank: rank, flowHash: flowHash, at: at, seq: seq,
	})
	if s.inBurst {
		return
	}
	// The pipe is FIFO, so an entry that beats the armed minimum found
	// the pipe empty and is its head.
	s.auxArmIfEarlier(at, seq, -1)
}

// auxArmIfEarlier re-arms the aux lane for a conveyor entry just added,
// if it precedes the one the lane is armed for.
func (s *Switch) auxArmIfEarlier(at sim.Time, seq uint64, idx int) {
	if at0, seq0, armed := s.auxLane.ArmedAt(); !armed || at < at0 || (at == at0 && seq < seq0) {
		s.auxLane.ArmExact(at, seq)
		s.auxIdx = idx
	}
}

// auxMin returns the coordinates of the earliest conveyor entry — the
// pipe head or a pending tx completion — and which one it is (its index
// in txPend, -1 for the pipe head).
//
// Kept out of line on measurement: small enough to inline since the
// pending set became a list, it lands in runCycle's burst loop and costs
// switch_linerate 5 % (1.89 M vs 2.02–2.07 M pkt_hops_per_s, 3 of 3
// alternating 4 s runs); the fat tree reads the same either way.
//
//go:noinline
func (s *Switch) auxMin() (at sim.Time, seq uint64, idx int, ok bool) {
	idx = -1
	if s.pipeHead < len(s.pipeQ) {
		e := &s.pipeQ[s.pipeHead]
		at, seq, ok = e.at, e.seq, true
	}
	for i := range s.txPend {
		d := &s.txPend[i]
		if !ok || d.at < at || (d.at == at && d.seq < seq) {
			at, seq, idx, ok = d.at, d.seq, i, true
		}
	}
	return at, seq, idx, ok
}

// auxArm points the aux lane at the earliest conveyor entry, or disarms
// it when the conveyor is empty. The invariant — the aux lane is always
// armed at the conveyor minimum's exact coordinates — is what keeps
// NextAt, NextBefore, and the drain fast-forward's horizon aware of
// conveyor work exactly as they were when each entry was a heap event.
func (s *Switch) auxArm() {
	if at, seq, idx, ok := s.auxMin(); ok {
		s.auxLane.ArmExact(at, seq)
		s.auxIdx = idx
	} else {
		s.auxLane.Disarm()
	}
}

// auxFire runs the conveyor entry auxMin identified (the clock is
// already at its instant) and re-arms the lane at the new minimum.
func (s *Switch) auxFire(idx int) {
	if idx >= 0 {
		port, last := s.txPend[idx].port, len(s.txPend)-1
		s.txPend[idx] = s.txPend[last]
		s.txPend = s.txPend[:last]
		if !s.inBurst {
			s.auxArm()
		}
		s.txComplete(port)
		return
	}
	e := &s.pipeQ[s.pipeHead]
	pkt, port, q, rank, fh := e.pkt, e.port, e.q, e.rank, e.flowHash
	e.pkt = nil
	s.pipeHead++
	if s.pipeHead == len(s.pipeQ) {
		s.pipeQ = s.pipeQ[:0]
		s.pipeHead = 0
	} else if s.pipeHead >= 64 && s.pipeHead*2 >= len(s.pipeQ) {
		n := copy(s.pipeQ, s.pipeQ[s.pipeHead:])
		s.pipeQ = s.pipeQ[:n]
		s.pipeHead = 0
	}
	if !s.inBurst {
		s.auxArm()
	}
	s.enqueueOut(pkt, port, q, rank, fh)
}

// auxRun fires on the aux lane: deliver the entry the lane was armed
// for, then — burst mode — keep delivering consecutive entries inline
// while the scheduler holds nothing that precedes them and the run
// horizon allows it (the same proof the burst slot loop uses). In
// per-packet oracle mode each dispatch delivers exactly one entry, like
// the heap events the conveyor replaced.
func (s *Switch) auxRun() {
	depth := s.conveyorDepth()
	if depth == 0 {
		return
	}
	if s.noBurst || depth < burstEngageDepth {
		// Per-packet oracle mode, or a conveyor too shallow for the
		// continuation loop to beat plain dispatch: deliver exactly one
		// entry, like the heap event it replaced.
		s.auxFire(s.auxIdx)
		return
	}
	s.inBurst = true
	s.auxFire(s.auxIdx)
	limit, strict := s.sched.RunBound()
	for {
		at, seq, idx, ok := s.auxMin()
		if !ok || at > limit || (strict && at == limit) || s.sched.NextBefore(at, seq) {
			break
		}
		s.sched.AdvanceTo(at)
		s.auxFire(idx)
	}
	s.inBurst = false
	s.auxArm()
}

func (s *Switch) enqueueOut(pkt *packet.Packet, port, q int, rank, flowHash uint64) {
	ok := s.tmgr.Enqueue(pkt, port, q, rank, flowHash, s.sched.Now())
	if !ok {
		if s.OnDrop != nil {
			s.OnDrop(pkt, "tm-overflow")
		}
		pkt.Release()
		return
	}
	s.pump(port)
}

// pump starts transmitting on a port if it is idle and has queued work.
func (s *Switch) pump(port int) {
	if s.txBusy[port] {
		return
	}
	pkt, ok := s.tmgr.Dequeue(port, s.sched.Now())
	if !ok {
		return
	}
	// PSA-style egress processing at dequeue time, when bound. The
	// context comes from a free list rather than being shared: the
	// handler's side effects (Emit -> enqueueOut -> pump) can re-enter
	// this function for another port, which then draws its own context.
	if s.prog != nil && s.prog.Handles(events.EgressPacket) && !pkt.Empty {
		var ctx *pisa.Context
		if n := len(s.egrFree); n > 0 {
			ctx = s.egrFree[n-1]
			s.egrFree = s.egrFree[:n-1]
		} else {
			ctx = &pisa.Context{}
		}
		ctx.Reset(pkt, &events.Event{
			Kind: events.EgressPacket, When: s.sched.Now(), Port: port, PktLen: pkt.Len(),
		}, s.sched.Now(), s.cycleIdx)
		parseSlot(ctx)
		ctx.EgressPort = port
		s.prog.Apply(ctx)
		for i := range ctx.Raised {
			s.pushEvent(&ctx.Raised[i])
		}
		for _, g := range ctx.Generated {
			s.stats.Generated++
			gp := s.pool.GetCopy(g.Data, -1)
			gp.Gen = true
			if g.Port >= 0 {
				s.enqueueOut(gp, g.Port, 0, 0, flowHashOf(g.Data))
			} else {
				s.genq.push(gp)
				s.wake()
			}
		}
		dropped := ctx.EgressPort == pisa.PortDrop
		s.egrFree = append(s.egrFree, ctx)
		if dropped {
			s.stats.PipelineDrops++
			if s.OnDrop != nil {
				s.OnDrop(pkt, "egress-drop")
			}
			pkt.Release()
			s.pump(port)
			return
		}
	}
	if !s.linkUp[port] {
		s.stats.TxDroppedLinkDown++
		if s.OnDrop != nil {
			s.OnDrop(pkt, "link-down")
		}
		pkt.Release()
		s.pump(port)
		return
	}
	s.txBusy[port] = true
	s.txPkt[port] = pkt
	ser := s.cfg.LineRate.ByteTime(pkt.Len() + WireOverhead)
	at := s.sched.Now() + ser
	seq := s.sched.NextSeq()
	s.txPend = append(s.txPend, txDone{at: at, seq: seq, port: port})
	if s.inBurst {
		return
	}
	s.auxArmIfEarlier(at, seq, len(s.txPend)-1)
}

// txComplete finishes a port's in-flight transmission: the packet's last
// byte has left the wire. One packet is in flight per port at a time, so
// the pre-built per-port callback needs no per-packet closure.
func (s *Switch) txComplete(port int) {
	pkt := s.txPkt[port]
	s.txPkt[port] = nil
	s.txBusy[port] = false
	s.stats.TxPackets++
	s.stats.TxBytes += uint64(pkt.Len())
	s.pushEvent(&events.Event{
		Kind: events.PacketTransmitted, When: s.sched.Now(),
		Port: port, PktLen: pkt.Len(),
	})
	if s.OnTransmit != nil {
		// netsim's transmit hook copies the frame into its own pooled
		// buffers before returning, so the packet can be recycled here.
		s.OnTransmit(port, pkt)
	}
	pkt.Release()
	s.pump(port)
}

// flowHashOf computes the flow hash of a frame, or 0 for non-IP frames.
func flowHashOf(data []byte) uint64 {
	if f, ok := packet.FlowOf(data); ok {
		return f.Hash()
	}
	return 0
}

// EventQueueLen reports the occupancy of the merger FIFO for a kind
// (monitoring).
func (s *Switch) EventQueueLen(k events.Kind) int { return s.evq[k].Len() }

// EventQueueDrops reports FIFO-full losses for a kind.
func (s *Switch) EventQueueDrops(k events.Kind) uint64 { return s.evq[k].Drops() }

// EventQueueHighWater reports the peak occupancy of a kind's FIFO.
func (s *Switch) EventQueueHighWater(k events.Kind) int { return s.evq[k].HighWater() }

// EventQueue exposes one merger FIFO read-only for audits.
func (s *Switch) EventQueue(k events.Kind) *events.Queue { return s.evq[k] }

// Inventory reports where packets currently sit inside the switch. With
// the switch's lifetime counters it closes the packet-conservation
// identity faults.Audit checks:
//
//	RxPackets + Generated == TxPackets + PipelineDrops +
//	    TxDroppedLinkDown + TM overflow drops + Inventory sum
type Inventory struct {
	RxQueued   int // received, not yet through a pipeline slot
	Recirc     int // waiting on the recirculation path
	GenQueued  int // generated, waiting for a slot
	InPipeline int // between their slot and the traffic manager
	Buffered   int // in traffic-manager output queues
	OnWire     int // being serialized onto a port right now
}

// Total sums the inventory.
func (inv Inventory) Total() int {
	return inv.RxQueued + inv.Recirc + inv.GenQueued + inv.InPipeline + inv.Buffered + inv.OnWire
}

// Inventory snapshots the switch's in-flight packet population.
func (s *Switch) Inventory() Inventory {
	var inv Inventory
	for p := range s.rxq {
		inv.RxQueued += len(s.rxq[p]) - s.rxHead[p]
	}
	inv.Recirc = s.recirc.len()
	inv.GenQueued = s.genq.len()
	inv.InPipeline = len(s.pipeQ) - s.pipeHead
	enq, deq, _, _ := s.tmgr.Stats()
	inv.Buffered = int(enq - deq)
	for _, pkt := range s.txPkt {
		if pkt != nil {
			inv.OnWire++
		}
	}
	return inv
}
