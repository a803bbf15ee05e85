package core

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tm"
)

// The datapath of paper Figure 4, one file per block: this file sizes and
// builds a Switch; sources.go holds the event sources and the Event
// Merger, cycle.go the pipeline cycle and its slot, conveyor.go the
// pipeline-latency and tx-completion lane, egress.go the TM handoff and
// the transmitters, inventory.go the monitoring views.

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
	// drains event FIFOs into a slot (default: DefaultMergerPriority).
	MergerPriority []events.Kind
	// EventOverflow overrides the overflow policy of individual event
	// FIFOs. Kinds not present get the defaults: LinkStatusChange
	// coalesces per port (a flap burst collapses to each port's final
	// state), every other kind drops the newest event when full.
	EventOverflow map[events.Kind]events.OverflowPolicy
}

// pipelineLatency is the ingress-pipeline depth in cycles: the delay
// between a slot entering the pipeline and its packet reaching the
// traffic manager (16 stages).
const pipelineLatency = 16

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
	if c.MergerPriority == nil {
		c.MergerPriority = DefaultMergerPriority()
	}
	return c
}

// DefaultMergerPriority returns the order in which the Event Merger drains
// event FIFOs into a slot when Config.MergerPriority is nil: most urgent
// first (paper §4 raises exactly this scheduling question; this is the
// default the prototype uses). The slice is the caller's own.
func DefaultMergerPriority() []events.Kind {
	return []events.Kind{
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
	// pool recycles every packet the switch materializes (rx copies,
	// generated frames): the steady-state forward path allocates nothing.
	pool *packet.Pool

	rxq        []sim.FIFO[*packet.Packet]
	rxRR       int
	rxPending  int // packets queued across rxq (kept so work checks are O(1))
	recirc     sim.FIFO[*packet.Packet]
	lastRecirc bool
	genq       sim.FIFO[*packet.Packet]

	evq [events.NumKinds]*events.Queue
	// evMask has bit k set while evq[k] is non-empty; prioMask has bit k
	// set for kinds the merger actually drains (cfg.MergerPriority). The
	// pair makes the per-slot event scan and the wake predicate O(1) when
	// no events are pending — the common case at line rate.
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

	tmgr   *tm.TM
	linkUp []bool
	txPkt  []*packet.Packet // packet on the wire per port; nil = transmitter idle
	evSeq  uint64

	// The conveyor (conveyor.go).
	pipe    sim.FIFO[pipeEntry] // FIFO in (at, seq): slot → TM deliveries
	txPend  []txDone            // pending tx completions: unordered, at most one per port
	auxLane *sim.Lane           // fires the earliest conveyor entry
	// auxIdx says which entry the aux lane is armed for — an index into
	// txPend, or -1 for the pipe head — so auxRun need not search for it.
	// Valid whenever the lane is armed: entries move only in auxRun, and
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
	s.rxq = make([]sim.FIFO[*packet.Packet], cfg.Ports)
	s.linkUp = make([]bool, cfg.Ports)
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
	return s
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

// CycleTime returns the pipeline clock period.
func (s *Switch) CycleTime() sim.Time { return s.cycleTime }

// TM exposes the traffic manager (monitors read occupancancies from it).
func (s *Switch) TM() *tm.TM { return s.tmgr }

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
			// A kind the merger never drains (the packet events, which
			// ride the packet path) is never popped: its ring can wait.
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
