package core

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// A deliberately naive reference model of the paper's two mechanisms, the
// Event Merger (§3, Fig. 4) and the aggregation registers (§4, Fig. 3),
// written from the paper and DESIGN §1/§5 rather than from cycle.go. It
// keeps its pending work in a container/heap and in maps, walks the
// pipeline clock one cycle at a time, and knows nothing of lanes,
// conveyors or pools. Where the paper is silent the model makes a choice;
// each choice is one of DESIGN §5's numbered merger rules (M1…), cited at
// the line that makes it.
//
// The traffic manager is not one of the paper's mechanisms, so the model
// takes its events as stimuli: the comparison records every event the TM
// hands the switch, with its instant, and replays them into the model.
// Every other stimulus (frames, timers, control-plane triggers, link
// changes) the model derives from the configuration itself.

// refConfig is one randomised single-switch configuration. genRefConfig
// builds it from a seed; the model comparison, the staleness and hazard
// properties and FuzzRefModel all draw from it.
type refConfig struct {
	seed        uint64
	ports       int
	overspeed   float64
	load        float64 // offered fraction of line rate per port
	sizes       []int   // frame sizes, drawn uniformly
	depth       int     // event FIFO depth
	busWidth    int     // Config.MaxEventsPerSlot
	noPiggyback bool
	priority    []events.Kind
	overflow    map[events.Kind]events.OverflowPolicy
	handled     []events.Kind // non-packet kinds the program binds
	deferred    []events.Kind // handled kinds whose updates aggregate, in bank order
	timers      []sim.Time    // timer periods, by id
	controls    []sim.Time    // control-plane trigger instants
	flaps       []refFlap
	regSize     int
	horizon     sim.Time
}

type refFlap struct {
	at   sim.Time
	port int
	up   bool
}

// refKinds are the non-packet kinds the comparison can bind: those whose
// every source is either the TM or a stimulus the model derives itself.
var refKinds = []events.Kind{
	events.BufferEnqueue, events.BufferDequeue, events.BufferOverflow,
	events.BufferUnderflow, events.TimerExpiration,
	events.ControlPlaneTriggered, events.LinkStatusChange,
}

func (rc refConfig) String() string {
	return fmt.Sprintf("seed=%d ports=%d overspeed=%.3f load=%.2f sizes=%v depth=%d bus=%d nopiggy=%v prio=%v overflow=%v handled=%v deferred=%v timers=%v controls=%d flaps=%d regs=%d horizon=%v",
		rc.seed, rc.ports, rc.overspeed, rc.load, rc.sizes, rc.depth, rc.busWidth, rc.noPiggyback,
		rc.priority, rc.overflow, rc.handled, rc.deferred, rc.timers, len(rc.controls), len(rc.flaps),
		rc.regSize, rc.horizon)
}

// genRefConfig draws one configuration from seed.
func genRefConfig(seed uint64) refConfig {
	rng := sim.NewRNG(seed)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	rc := refConfig{seed: seed}
	rc.ports = 1 + pick(6)
	rc.overspeed = []float64{0.9, 1.0, 1.05, 1.1, 1.25, 1.5, 2}[pick(7)]
	rc.load = []float64{0.1, 0.3, 0.6, 0.9, 1.0}[pick(5)]
	all := []int{60, 60, 64, 128, 300, 590, 1514}
	for n := 1 + pick(3); n > 0; n-- {
		rc.sizes = append(rc.sizes, all[pick(len(all))])
	}
	rc.depth = []int{1, 2, 4, 16, 512}[pick(5)]
	rc.busWidth = []int{0, 0, 1, 2, 3}[pick(5)]
	rc.noPiggyback = pick(8) == 0
	rc.priority = DefaultMergerPriority()
	if pick(2) == 0 {
		for i := len(rc.priority) - 1; i > 0; i-- {
			j := pick(i + 1)
			rc.priority[i], rc.priority[j] = rc.priority[j], rc.priority[i]
		}
	}
	rc.overflow = map[events.Kind]events.OverflowPolicy{}
	for _, k := range refKinds {
		if pick(3) == 0 {
			rc.overflow[k] = events.OverflowPolicy(pick(3))
		}
		if pick(2) == 0 {
			rc.handled = append(rc.handled, k)
			if pick(3) != 0 {
				rc.deferred = append(rc.deferred, k)
			}
		}
	}
	for i := len(rc.deferred) - 1; i > 0; i-- {
		j := pick(i + 1)
		rc.deferred[i], rc.deferred[j] = rc.deferred[j], rc.deferred[i]
	}
	rc.regSize = []int{1, 2, 4, 16}[pick(4)]
	rc.horizon = sim.Time(20+pick(40)) * sim.Microsecond
	// Timer periods never coincide within the horizon (a same-instant
	// pair of one kind would be ordered by the scheduler, not the model).
	for n := pick(3); n > 0; n-- {
		p := sim.Time(800+pick(3000)) * sim.Nanosecond / 10
		ok := true
		for _, q := range rc.timers {
			if lcm(p, q) <= rc.horizon {
				ok = false
			}
		}
		if ok {
			rc.timers = append(rc.timers, p)
		}
	}
	for n := pick(6); n > 0; n-- {
		rc.controls = append(rc.controls, sim.Time(rng.Uint64()%uint64(rc.horizon)))
	}
	// A flap storm sends a port up and down within one drain turn, so
	// the link bank's deltas cancel (rule M8).
	for n := []int{0, 1, 3, 60}[pick(4)]; n > 0; n-- {
		rc.flaps = append(rc.flaps, refFlap{
			at: sim.Time(rng.Uint64() % uint64(rc.horizon)), port: pick(rc.ports), up: pick(2) == 0,
		})
	}
	return rc
}

func lcm(a, b sim.Time) sim.Time {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	if a/x > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a / x * b
}

// refFrame is one frame arrival on an input port.
type refFrame struct {
	at   sim.Time
	port int
	size int
}

// frames draws the arrival schedule: per port, frames back to back at
// the offered load with uniformly drawn sizes and a random phase.
func (rc refConfig) frames() []refFrame {
	rng := sim.NewRNG(rc.seed ^ 0x5eed)
	rate := 10 * sim.Gbps
	var out []refFrame
	for p := 0; p < rc.ports; p++ {
		t := sim.Time(rng.Uint64() % uint64(rate.ByteTime(1514)))
		for t < rc.horizon {
			size := rc.sizes[rng.Uint64()%uint64(len(rc.sizes))]
			out = append(out, refFrame{at: t, port: p, size: size})
			t += sim.Time(float64(rate.ByteTime(size+WireOverhead)) / rc.load)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// The program both sides run. A packet does one direct access to the
// register; every handled event kind adds a delta derived from its
// metadata, deferred through its bank or directly to the main array.
func refPktIndex(port, size, regs int) uint32 { return uint32((port*7 + size) % regs) }

func refEventUpdate(e *events.Event, regs int) (uint32, int64) {
	switch e.Kind {
	case events.BufferEnqueue:
		return uint32((e.Port*5 + int(e.FlowHash%7)) % regs), int64(e.PktLen)
	case events.BufferDequeue:
		return uint32((e.Port*5 + int(e.FlowHash%7)) % regs), -int64(e.PktLen)
	case events.TimerExpiration:
		return uint32(e.TimerID % regs), 1
	case events.ControlPlaneTriggered:
		return uint32(e.Data % uint64(regs)), 3
	case events.LinkStatusChange:
		if e.Up {
			return uint32(e.Port % regs), 1
		}
		return uint32(e.Port % regs), -1
	default: // overflow, underflow
		return uint32(e.Port % regs), 2
	}
}

func (rc refConfig) program() (*pisa.Program, *pisa.SharedRegister) {
	prog := pisa.NewProgram("ref")
	reg := prog.AddRegister(pisa.NewAggregatedRegister("reg", rc.regSize, rc.deferred...))
	ports := rc.ports
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		reg.Add(ctx, refPktIndex(ctx.Pkt.InPort, len(ctx.Pkt.Data), rc.regSize), 1)
		ctx.EgressPort = (ctx.Pkt.InPort + 1) % ports
	})
	for _, k := range rc.handled {
		prog.HandleFunc(k, func(ctx *pisa.Context) {
			idx, d := refEventUpdate(&ctx.Ev, rc.regSize)
			reg.Add(ctx, idx, d)
		})
	}
	return prog, reg
}

// refSlot is one pipeline slot as both sides report it.
type refSlot struct {
	cycle uint64
	at    sim.Time
	empty bool
	kinds []events.Kind
}

func (s refSlot) String() string {
	what := "packet"
	if s.empty {
		what = "empty"
	}
	return fmt.Sprintf("cycle %d @%v %s %v", s.cycle, s.at, what, s.kinds)
}

// refDrain is one aggregated delta reaching the main array.
type refDrain struct {
	cycle uint64
	idx   uint32
	lag   uint64
}

// refTrace is what a run reports: the comparison holds the two sides'
// traces equal field by field.
type refTrace struct {
	slots                                []refSlot
	drains                               []refDrain
	merged, dropped, coalesced, shed     [events.NumKinds]uint64
	main, truth                          []int64
	offers                               []refOffer // TM events, with their instants (core side only)
	maxLag                               uint64
	bankDenied, mainConflicts, deferrals uint64
}

type refOffer struct {
	at sim.Time
	ev events.Event
}

// runCoreRef runs the configuration on core + state, recording what
// refTrace needs.
func runCoreRef(tb testing.TB, rc refConfig) refTrace {
	sched := sim.NewScheduler()
	sw := New(Config{
		Ports: rc.ports, Overspeed: rc.overspeed, EventQueueDepth: rc.depth,
		MaxEventsPerSlot: rc.busWidth, NoPiggyback: rc.noPiggyback,
		MergerPriority: rc.priority,
	}, EventDriven(), sched)
	for k, pol := range rc.overflow {
		sw.EventQueue(k).SetPolicy(pol)
	}
	prog, reg := rc.program()
	sw.MustLoad(prog)
	var tr refTrace
	push := sw.tmgr.OnEvent
	sw.tmgr.OnEvent = func(e *events.Event) {
		tr.offers = append(tr.offers, refOffer{sched.Now(), *e})
		push(e)
	}
	sw.OnSlot = func(si SlotInfo) {
		tr.slots = append(tr.slots, refSlot{si.Cycle, si.At, si.Empty, append([]events.Kind(nil), si.Events...)})
	}
	reg.SetDrainHook(func(idx uint32, lag uint64) {
		tr.drains = append(tr.drains, refDrain{sw.Stats().Cycles, idx, lag})
	})
	for id, p := range rc.timers {
		if err := sw.ConfigureTimer(id, p); err != nil {
			tb.Fatal(err)
		}
	}
	for i, at := range rc.controls {
		data := uint64(i)
		sched.At(at, func() { sw.TriggerControlEvent(data) })
	}
	for _, f := range rc.flaps {
		f := f
		sched.At(f.at, func() { sw.SetLink(f.port, f.up) })
	}
	data := map[int][]byte{}
	for _, f := range rc.frames() {
		f := f
		if data[f.size] == nil {
			data[f.size] = packet.BuildFrame(packet.FrameSpec{TotalLen: f.size, Flow: packet.Flow{
				Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 1, DstPort: 2,
				Proto: packet.ProtoUDP,
			}})
		}
		sched.At(f.at, func() { sw.Inject(f.port, data[f.size]) })
	}
	sched.Run(rc.horizon)
	st := sw.Stats()
	tr.merged, tr.dropped, tr.coalesced, tr.shed = st.EventsMerged, st.EventsDropped, st.EventsCoalesced, st.EventsShed
	for i := 0; i < rc.regSize; i++ {
		tr.main = append(tr.main, int64(reg.Stale(uint32(i))))
		tr.truth = append(tr.truth, reg.True(uint32(i)))
	}
	m, conflicts := reg.Metrics()
	tr.maxLag, tr.mainConflicts, tr.deferrals = m.MaxLag, conflicts, m.Deferred
	tr.bankDenied = m.Dropped
	return tr
}

// --- the model ---------------------------------------------------------

type refStim struct {
	at  sim.Time
	ord int // order of equal instants: the order the stimuli were offered
	pkt *refFrame
	ev  events.Event
}

type refStims []refStim

func (h refStims) Len() int { return len(h) }
func (h refStims) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}
func (h refStims) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refStims) Push(x any)   { *h = append(*h, x.(refStim)) }
func (h *refStims) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refBank is one event class's aggregation bank: a pending delta per
// index and the order indices became dirty in.
type refBank struct {
	pending map[uint32]int64
	since   map[uint32]uint64
	dirty   []uint32
}

type refModel struct {
	rc        refConfig
	cycleTime sim.Time
	stims     refStims
	linkUp    map[int]bool
	rx        map[int][]refFrame
	rr        int
	fifo      map[events.Kind][]events.Event
	handled   map[events.Kind]bool
	bankOf    map[events.Kind]int
	banks     []*refBank
	bankRR    int
	main      map[uint32]int64
	out       refTrace
}

// runRefModel replays rc, with the TM's recorded events, through the model.
func runRefModel(rc refConfig, tmOffers []refOffer) refTrace {
	m := &refModel{
		rc:      rc,
		linkUp:  map[int]bool{},
		rx:      map[int][]refFrame{},
		fifo:    map[events.Kind][]events.Event{},
		handled: map[events.Kind]bool{},
		bankOf:  map[events.Kind]int{},
		main:    map[uint32]int64{},
	}
	perPortMin := (10 * sim.Gbps).ByteTime(minWireBytes)
	m.cycleTime = sim.Time(float64(perPortMin) / (float64(rc.ports) * rc.overspeed))
	for _, k := range rc.handled {
		m.handled[k] = true
	}
	for i, k := range rc.deferred {
		m.bankOf[k] = i
		m.banks = append(m.banks, &refBank{pending: map[uint32]int64{}, since: map[uint32]uint64{}})
	}
	if len(m.banks) == 0 {
		m.banks = append(m.banks, &refBank{pending: map[uint32]int64{}, since: map[uint32]uint64{}})
	}
	ord := 0
	add := func(s refStim) {
		s.ord = ord
		ord++
		heap.Push(&m.stims, s)
	}
	for id, p := range rc.timers {
		for t := p; t <= rc.horizon; t += p {
			add(refStim{at: t, ev: events.Event{Kind: events.TimerExpiration, When: t, TimerID: id, Port: -1}})
		}
	}
	for i, at := range rc.controls {
		add(refStim{at: at, ev: events.Event{Kind: events.ControlPlaneTriggered, When: at, Data: uint64(i), Port: -1}})
	}
	for _, f := range rc.flaps {
		add(refStim{at: f.at, ev: events.Event{Kind: events.LinkStatusChange, When: f.at, Port: f.port, Up: f.up}})
	}
	for _, f := range rc.frames() {
		f := f
		add(refStim{at: f.at, pkt: &f})
	}
	for _, o := range tmOffers {
		add(refStim{at: o.at, ev: o.ev})
	}
	for p := 0; p < rc.ports; p++ {
		m.linkUp[p] = true
	}
	m.run()
	for i := 0; i < rc.regSize; i++ {
		v := m.main[uint32(i)]
		t := v
		for _, b := range m.banks {
			t += b.pending[uint32(i)]
		}
		m.out.main = append(m.out.main, v)
		m.out.truth = append(m.out.truth, t)
	}
	return m.out
}

// admit moves every stimulus at or before t into the switch: frames into
// their port's receive queue, events into their kind's FIFO under its
// overflow policy.
func (m *refModel) admit(t sim.Time) {
	for len(m.stims) > 0 && m.stims[0].at <= t {
		s := heap.Pop(&m.stims).(refStim)
		if s.pkt != nil {
			if m.linkUp[s.pkt.port] {
				m.rx[s.pkt.port] = append(m.rx[s.pkt.port], *s.pkt)
			}
			continue
		}
		e := s.ev
		if e.Kind == events.LinkStatusChange {
			if m.linkUp[e.Port] == e.Up {
				continue // no change, no event
			}
			m.linkUp[e.Port] = e.Up
		}
		if m.handled[e.Kind] {
			m.offer(e)
		}
	}
}

// offer applies a FIFO's overflow policy (events.OverflowPolicy's
// documented semantics; LinkStatusChange coalesces per port by default).
func (m *refModel) offer(e events.Event) {
	q := m.fifo[e.Kind]
	pol, ok := m.rc.overflow[e.Kind]
	if !ok && e.Kind == events.LinkStatusChange {
		pol = events.CoalescePort
	}
	if pol == events.CoalescePort {
		for i := range q {
			if q[i].Port == e.Port {
				q[i] = e
				m.out.coalesced[e.Kind]++
				return
			}
		}
	}
	if len(q) >= m.rc.depth {
		if pol != events.DropOldest {
			m.out.dropped[e.Kind]++
			return
		}
		q = q[1:]
		m.out.shed[e.Kind]++
	}
	m.fifo[e.Kind] = append(q, e)
}

func (m *refModel) backlog() int {
	n := 0
	for _, b := range m.banks {
		n += len(b.dirty)
	}
	return n
}

func (m *refModel) eventsPending() bool {
	for _, k := range m.rc.priority {
		if len(m.fifo[k]) > 0 {
			return true
		}
	}
	return false
}

func (m *refModel) packetPending() bool {
	for _, q := range m.rx {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// run walks the pipeline clock. M1: the clock is gated — a cycle runs
// only while there is a packet, an event or a pending delta to serve;
// cycles are numbered by execution from 1; an idle switch's next cycle
// starts at the later of the first new stimulus and one period after its
// last cycle. M2: a stimulus at a cycle's own instant is visible to it.
func (m *refModel) run() {
	var cycle uint64
	var next sim.Time
	for {
		m.admit(next)
		at := next
		if !m.packetPending() && !m.eventsPending() && m.backlog() == 0 {
			if len(m.stims) == 0 {
				return
			}
			at = m.stims[0].at
			if at > m.rc.horizon {
				return
			}
			m.admit(at)
			if !m.packetPending() && !m.eventsPending() {
				next = at // the stimulus made no work (a frame on a downed link)
				continue
			}
		}
		if at > m.rc.horizon {
			return
		}
		cycle++
		m.cycle(cycle, at)
		next = at + m.cycleTime
	}
}

// cycle runs one pipeline cycle: form the slot, run its threads against
// the registers, then drain on the idle main port.
func (m *refModel) cycle(cycle uint64, at sim.Time) {
	mainFree := true
	var pkt *refFrame
	var evs []events.Event
	// M3: without piggybacking, pending events take the slot and
	// packets wait.
	if m.rc.noPiggyback {
		evs = m.gather()
	}
	// M4: ports are served round-robin, one frame per slot.
	for i := 0; i < m.rc.ports && len(evs) == 0; i++ {
		p := (m.rr + i) % m.rc.ports
		if len(m.rx[p]) > 0 {
			f := m.rx[p][0]
			m.rx[p] = m.rx[p][1:]
			pkt = &f
			m.rr = (p + 1) % m.rc.ports
			break
		}
	}
	if !m.rc.noPiggyback {
		evs = m.gather()
	}
	if pkt != nil || len(evs) > 0 {
		s := refSlot{cycle: cycle, at: at, empty: pkt == nil}
		for _, e := range evs {
			s.kinds = append(s.kinds, e.Kind)
		}
		m.out.slots = append(m.out.slots, s)
	}
	// M6: the packet thread runs first and takes the main array's one
	// port; event threads follow in merge order.
	if pkt != nil {
		m.out.merged[events.IngressPacket]++
		m.main[refPktIndex(pkt.port, pkt.size, m.rc.regSize)]++
		mainFree = false
	}
	for i := range evs {
		e := &evs[i]
		idx, d := refEventUpdate(e, m.rc.regSize)
		if b, ok := m.bankOf[e.Kind]; ok {
			m.deferDelta(b, idx, d, cycle)
			continue
		}
		if !mainFree {
			m.out.mainConflicts++ // M7: a direct update that finds the port taken is lost
			continue
		}
		m.main[idx] += d
		mainFree = false
	}
	if mainFree {
		m.drain(cycle)
	}
}

// gather takes the slot's events. M5: one event per kind per slot, kinds
// in priority order, up to the bus width.
func (m *refModel) gather() []events.Event {
	var evs []events.Event
	width := m.rc.busWidth
	if width == 0 {
		width = events.NumKinds
	}
	for _, k := range m.rc.priority {
		if len(evs) == width {
			break
		}
		if q := m.fifo[k]; len(q) > 0 {
			evs = append(evs, q[0])
			m.fifo[k] = q[1:]
			m.out.merged[k]++
		}
	}
	return evs
}

// deferDelta adds d to bank b's pending delta for idx (Fig. 3: deltas
// coalesce per index until drained).
func (m *refModel) deferDelta(b int, idx uint32, d int64, cycle uint64) {
	bank := m.banks[b]
	m.out.deferrals++
	if _, dirty := bank.pending[idx]; !dirty {
		if d == 0 {
			return
		}
		bank.dirty = append(bank.dirty, idx)
		bank.since[idx] = cycle
	}
	bank.pending[idx] += d
}

// drain folds one pending delta into the main array: banks in
// round-robin order (DESIGN §5's lesson: strict priority starves a bank),
// each bank's dirty indices oldest first.
func (m *refModel) drain(cycle uint64) {
	n, start := len(m.banks), m.bankRR
	for k := 0; k < n; k++ {
		b := (start + k) % n
		bank := m.banks[b]
		if len(bank.dirty) == 0 {
			continue
		}
		idx := bank.dirty[0]
		bank.dirty = bank.dirty[1:]
		d := bank.pending[idx]
		delete(bank.pending, idx)
		m.bankRR = (b + 1) % n
		if d == 0 {
			// M8: an index whose deltas cancelled retires without a
			// main write; the main port goes to the next bank.
			continue
		}
		m.main[idx] += d
		lag := cycle - bank.since[idx]
		m.out.drains = append(m.out.drains, refDrain{cycle, idx, lag})
		if lag > m.out.maxLag {
			m.out.maxLag = lag
		}
		return
	}
}

// --- comparison --------------------------------------------------------

// diffRef reports the first way the model and core disagree, or "".
func diffRef(model, core refTrace) string {
	var b strings.Builder
	n := len(model.slots)
	if len(core.slots) < n {
		n = len(core.slots)
	}
	for i := 0; i <= n; i++ {
		var ms, cs *refSlot
		if i < len(model.slots) {
			ms = &model.slots[i]
		}
		if i < len(core.slots) {
			cs = &core.slots[i]
		}
		if ms == nil && cs == nil {
			break
		}
		if ms != nil && cs != nil && ms.String() == cs.String() {
			continue
		}
		fmt.Fprintf(&b, "first diverging slot #%d\n  model: %v\n  core:  %v\n", i, slotOrEnd(ms), slotOrEnd(cs))
		for j := i - 3; j < i; j++ {
			if j >= 0 {
				fmt.Fprintf(&b, "  (slot #%d both: %v)\n", j, model.slots[j])
			}
		}
		return b.String()
	}
	for i := 0; i < len(model.drains) || i < len(core.drains); i++ {
		var md, cd string = "none", "none"
		if i < len(model.drains) {
			md = fmt.Sprintf("%+v", model.drains[i])
		}
		if i < len(core.drains) {
			cd = fmt.Sprintf("%+v", core.drains[i])
		}
		if md != cd {
			return fmt.Sprintf("first diverging drain #%d\n  model: %s\n  core:  %s\n%s", i, md, cd, nearSlots(model, core, i))
		}
	}
	for k := 0; k < events.NumKinds; k++ {
		kind := events.Kind(k)
		if model.merged[k] != core.merged[k] || model.dropped[k] != core.dropped[k] ||
			model.coalesced[k] != core.coalesced[k] || model.shed[k] != core.shed[k] {
			return fmt.Sprintf("%v counts (merged, dropped, coalesced, shed): model %d %d %d %d, core %d %d %d %d",
				kind, model.merged[k], model.dropped[k], model.coalesced[k], model.shed[k],
				core.merged[k], core.dropped[k], core.coalesced[k], core.shed[k])
		}
	}
	for i := range model.main {
		if model.main[i] != core.main[i] || model.truth[i] != core.truth[i] {
			return fmt.Sprintf("register entry %d (main, true): model %d %d, core %d %d",
				i, model.main[i], model.truth[i], core.main[i], core.truth[i])
		}
	}
	if model.mainConflicts != core.mainConflicts || model.deferrals != core.deferrals {
		return fmt.Sprintf("register (conflicts, deferred): model %d %d, core %d %d",
			model.mainConflicts, model.deferrals, core.mainConflicts, core.deferrals)
	}
	return ""
}

func slotOrEnd(s *refSlot) string {
	if s == nil {
		return "(no more slots)"
	}
	return s.String()
}

// nearSlots prints the slots each side ran around a diverging drain.
func nearSlots(model, core refTrace, i int) string {
	var at uint64
	if i < len(model.drains) {
		at = model.drains[i].cycle
	} else if i < len(core.drains) {
		at = core.drains[i].cycle
	}
	var b strings.Builder
	for _, side := range []struct {
		name string
		tr   refTrace
	}{{"model", model}, {"core", core}} {
		for _, s := range side.tr.slots {
			if s.cycle+3 >= at && s.cycle <= at+1 {
				fmt.Fprintf(&b, "  %s slot: %v\n", side.name, s)
			}
		}
	}
	return b.String()
}

// checkRefModel runs one configuration on both sides and fails on the
// first disagreement.
func checkRefModel(tb testing.TB, rc refConfig) refTrace {
	tb.Helper()
	core := runCoreRef(tb, rc)
	model := runRefModel(rc, core.offers)
	if d := diffRef(model, core); d != "" {
		tb.Fatalf("model and core disagree on %v:\n%s", rc, d)
	}
	return core
}

// TestRefModelMatchesCore is the engine's check against the paper: on
// randomised single-switch configurations, core + state must agree with
// the reference model per slot (cycle, instant, packet or injected,
// event kinds carried), per drain, per register entry and per kind.
func TestRefModelMatchesCore(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	var slots, drains, empties int
	for seed := uint64(1); seed <= uint64(n); seed++ {
		tr := checkRefModel(t, genRefConfig(seed))
		slots += len(tr.slots)
		drains += len(tr.drains)
		for _, s := range tr.slots {
			if s.empty {
				empties++
			}
		}
	}
	if slots == 0 || drains == 0 || empties == 0 {
		t.Fatalf("configurations exercise nothing: %d slots, %d drains, %d empty slots", slots, drains, empties)
	}
}

// stalenessBound is the §4 argument made explicit for a configuration in
// which only packet slots touch the main array, or ok=false when the
// configuration has no slack. A delta waits behind at most regSize
// indices of its own bank, and round-robin serves every other bank at
// most once between two turns of its own, so it drains within
// regSize·banks idle cycles. Packets claim a share r of cycles (the
// offered load in minimum-size frames over the pipeline's slot rate),
// plus at most 2·ports for frames already queued or arriving together;
// so regSize·banks idle cycles come within (regSize·banks+2·ports)/(1−r)
// cycles.
func (rc refConfig) stalenessBound() (bound uint64, ok bool) {
	minSize := rc.sizes[0]
	for _, s := range rc.sizes {
		if s < minSize {
			minSize = s
		}
	}
	rate := 10 * sim.Gbps
	ct := sim.Time(float64(rate.ByteTime(minWireBytes)) / (float64(rc.ports) * rc.overspeed))
	r := rc.load * float64(rc.ports) * float64(ct) / float64(rate.ByteTime(minSize+WireOverhead))
	if r >= 1 {
		return 0, false
	}
	banks := len(rc.deferred)
	if banks == 0 {
		banks = 1
	}
	return uint64(math.Ceil(float64(rc.regSize*banks+2*rc.ports) / (1 - r))), true
}

// TestBoundedStalenessProperty holds paper §4's claim as a randomised
// property: with every event update deferred, the longest any delta waits
// in its bank stays within stalenessBound on every configuration with
// slack. Configurations without slack are skipped, not checked.
func TestBoundedStalenessProperty(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	checked := 0
	var worst float64
	for seed := uint64(1); seed <= uint64(n); seed++ {
		rc := genRefConfig(seed)
		rc.deferred = append([]events.Kind(nil), rc.handled...)
		bound, ok := rc.stalenessBound()
		if !ok {
			continue
		}
		tr := runCoreRef(t, rc)
		if len(tr.drains) > 0 {
			checked++
		}
		if tr.maxLag > bound {
			t.Fatalf("max defer lag %d cycles exceeds the bound %d on %v", tr.maxLag, bound, rc)
		}
		if f := float64(tr.maxLag) / float64(bound); f > worst {
			worst = f
		}
	}
	if checked < n/10 {
		t.Fatalf("only %d of %d configurations drained anything", checked, n)
	}
	t.Logf("%d configurations drained; worst max lag was %.0f%% of its bound", checked, 100*worst)
}

// TestSinglePortedBankProperty is the state-access hazard property
// (Cascone et al., PAPERS.md): a single-ported memory never serves two
// accesses in one cycle. Each bank takes at most one deferral per cycle
// (none is ever refused), the main array at most one drain per cycle, and
// never a drain in a cycle whose slot already used its port (a packet, or
// an event kind that updates the main array directly).
func TestSinglePortedBankProperty(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		rc := genRefConfig(seed)
		tr := runCoreRef(t, rc)
		if tr.bankDenied != 0 {
			t.Fatalf("%d deferrals refused by a busy bank on %v", tr.bankDenied, rc)
		}
		direct := map[events.Kind]bool{}
		for _, k := range rc.handled {
			direct[k] = true
		}
		for _, k := range rc.deferred {
			direct[k] = false
		}
		busy := map[uint64]string{}
		for _, s := range tr.slots {
			if !s.empty {
				busy[s.cycle] = s.String()
			}
			for _, k := range s.kinds {
				if direct[k] {
					busy[s.cycle] = s.String()
				}
			}
		}
		for i, d := range tr.drains {
			if i > 0 && tr.drains[i-1].cycle == d.cycle {
				t.Fatalf("two drains into the main array in cycle %d (%+v, %+v) on %v", d.cycle, tr.drains[i-1], d, rc)
			}
			if s, ok := busy[d.cycle]; ok {
				t.Fatalf("drain %+v shares its cycle with slot %s on %v", d, s, rc)
			}
		}
	}
}

// FuzzRefModel runs the model comparison on configurations drawn from the
// fuzzer's seed bytes: no generated configuration may panic either side,
// and the two must agree.
func FuzzRefModel(f *testing.F) {
	for _, s := range []string{"", "\x01", "seed", "\xff\xff\xff\xff\xff\xff\xff\xff"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		seed := uint64(14695981039346656037)
		for _, c := range b {
			seed = (seed ^ uint64(c)) * 1099511628211
		}
		checkRefModel(t, genRefConfig(seed))
	})
}
