package core

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// The pipeline cycle: runCycle fires on the cycle lane and runs one slot
// or a proven burst of them, runSlot is the slot itself, fastForwardDrain
// replays a drain-only stretch in one step, finishSlot applies a slot's
// side effects.

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
	// Adaptive engagement: the bracket (aux-lane disarm/re-arm) and the
	// per-slot continuation proofs only pay for themselves when this wake
	// plausibly holds several back-to-back slots. A light wake — fewer
	// than burstEngageDepth packets queued — runs the plain single-slot
	// path, which is the per-event oracle, so the gate can depend on any
	// deterministic simulation state without affecting output.
	budget := 1
	if !s.cfg.NoBurst && s.packetBacklog() >= burstEngageDepth {
		budget = burstSlots
	}
	if budget > 1 {
		s.inBurst = true
		s.auxLane.Disarm()
	}
	for n := 1; ; n++ {
		drained := s.runSlot()
		slots++
		if drained || n >= budget || !s.haveWork() {
			break
		}
		next := s.nextCycleAt
		if s.beyondRun(next) {
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
		if !s.auxRunUpTo(next) {
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

// beyondRun reports whether instant at lies outside the horizon of the
// scheduler run in progress (inclusive for Run, strict for RunBefore).
func (s *Switch) beyondRun(at sim.Time) bool {
	limit, strict := s.sched.RunBound()
	return at > limit || (strict && at == limit)
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
			if !s.cfg.NoDrainFastForward {
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
	for _, g := range ctx.Generated {
		// No wake for a packet queued for a slot: runCycle re-arms after
		// the slot, and arming here would draw the lane's seq early.
		s.emit(g.Data, g.Port)
	}
	if !havePkt {
		return
	}
	pkt := ctx.Pkt
	if ctx.Recirculate {
		cl := pkt
		cl.Recirc++
		s.stats.Recirculated++
		s.recirc.Push(cl)
		return
	}
	if ctx.EgressPort == pisa.PortDrop {
		s.stats.PipelineDrops++
		s.drop(pkt, "pipeline-drop")
		return
	}
	if ctx.EgressPort < 0 || ctx.EgressPort >= s.cfg.Ports {
		s.stats.PipelineDrops++
		s.drop(pkt, "bad-egress-port")
		return
	}
	s.enqueueOutDelayed(pkt, ctx.EgressPort, ctx.Queue, ctx.Rank, flowHash)
}
