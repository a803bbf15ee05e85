package telemetry

import (
	"repro/internal/events"
	"repro/internal/sim"
)

// QueueCounters mirror one event FIFO's overflow accounting: every
// offered event lands in exactly one of the four counters, so
//
//	offered = Stored + Coalesced + Shed + Dropped
//
// matches the queue's own identity offered = Pushed + Coalesced + Drops
// with Pushed = Stored + Shed (a shed eviction still stores the newcomer).
type QueueCounters struct {
	Stored, Coalesced, Shed, Dropped *Counter
}

// Observe counts one Offer outcome.
func (qc QueueCounters) Observe(out events.Outcome) {
	switch out {
	case events.Stored:
		qc.Stored.Inc()
	case events.Coalesced:
		qc.Coalesced.Inc()
	case events.StoredShed:
		qc.Shed.Inc()
	case events.Dropped:
		qc.Dropped.Inc()
	}
}

// NewQueueCounters creates the four outcome counters under prefix
// (prefix + ".stored", ".coalesced", ".shed", ".dropped").
func (c *Collector) NewQueueCounters(prefix string) QueueCounters {
	r := c.reg
	return QueueCounters{
		Stored:    r.Counter(prefix + ".stored"),
		Coalesced: r.Counter(prefix + ".coalesced"),
		Shed:      r.Counter(prefix + ".shed"),
		Dropped:   r.Counter(prefix + ".dropped"),
	}
}

// eventKindName names a Table 1 event kind byte for export.
func eventKindName(k uint8) string {
	return events.Kind(k).String()
}

// outcomeOf maps a queue outcome to a trace outcome.
func outcomeOf(out events.Outcome) Outcome {
	switch out {
	case events.Stored:
		return OutStored
	case events.Coalesced:
		return OutCoalesced
	case events.StoredShed:
		return OutShed
	case events.Dropped:
		return OutDropped
	}
	return OutNone
}

// SwitchProbe bundles the pre-resolved instruments for one switch so the
// switch's hot path updates telemetry with field increments — no name
// lookups, no allocation. Built by Collector.NewSwitchProbe during setup;
// written only by the switch's own simulation domain.
type SwitchProbe struct {
	// Stream is the switch's trace stream (nil when tracing is off).
	Stream *Stream

	Cycles      *Counter // pipeline cycles executed
	PacketSlots *Counter // slots carrying a real packet
	EmptySlots  *Counter // injected empty metadata carriers
	DrainSlots  *Counter // pure aggregation-drain cycles

	// Piggybacked/Injected split the merger's per-event decision: the
	// event rode a packet slot, or forced an empty-packet slot.
	Piggybacked *Counter
	Injected    *Counter

	// Merged counts events delivered to the program, per kind.
	Merged [events.NumKinds]*Counter
	// Enq counts each kind's FIFO offer outcomes.
	Enq [events.NumKinds]QueueCounters
}

// NewSwitchProbe creates a switch's instruments under "sw.<name>.".
func (c *Collector) NewSwitchProbe(name string) *SwitchProbe {
	r := c.reg
	pre := "sw." + name + "."
	p := &SwitchProbe{
		Stream:      c.Stream("sw." + name),
		Cycles:      r.Counter(pre + "cycles"),
		PacketSlots: r.Counter(pre + "slots.packet"),
		EmptySlots:  r.Counter(pre + "slots.empty"),
		DrainSlots:  r.Counter(pre + "slots.drain"),
		Piggybacked: r.Counter(pre + "merger.piggybacked"),
		Injected:    r.Counter(pre + "merger.injected"),
	}
	for k := 0; k < events.NumKinds; k++ {
		kn := events.Kind(k).String()
		p.Merged[k] = r.Counter(pre + "ev." + kn + ".merged")
		p.Enq[k] = c.NewQueueCounters(pre + "ev." + kn)
	}
	return p
}

// ObserveOffer records one event's generation and FIFO outcome: the
// StageGen and StageEnqueue lifecycle stamps plus the outcome counter.
func (p *SwitchProbe) ObserveOffer(at sim.Time, e events.Event, out events.Outcome) {
	p.Enq[e.Kind].Observe(out)
	if p.Stream != nil {
		p.Stream.Emit(at, StageGen, uint8(e.Kind), OutNone, e.Seq, uint64(int64(e.Port)))
		p.Stream.Emit(at, StageEnqueue, uint8(e.Kind), outcomeOf(out), e.Seq, 0)
	}
}

// ObserveSlotStart records a slot entering the pipeline: a packet slot
// (StageSlot stamped with the packet kind and cycle) or an injected
// empty carrier.
func (p *SwitchProbe) ObserveSlotStart(at sim.Time, cycle uint64, pktKind events.Kind, havePkt bool) {
	if havePkt {
		p.PacketSlots.Inc()
		if p.Stream != nil {
			p.Stream.Emit(at, StageSlot, uint8(pktKind), OutPiggyback, cycle, 0)
		}
		return
	}
	p.EmptySlots.Inc()
	if p.Stream != nil {
		p.Stream.Emit(at, StageSlot, uint8(pktKind), OutInjected, cycle, 0)
	}
}

// ObserveMerge records the merger attaching one queued event to the
// current slot: piggybacked onto a packet, or carried by an injected
// empty packet.
func (p *SwitchProbe) ObserveMerge(at sim.Time, cycle uint64, e events.Event, havePkt bool) {
	out := OutPiggyback
	ctr := p.Piggybacked
	if !havePkt {
		out = OutInjected
		ctr = p.Injected
	}
	ctr.Inc()
	if p.Stream != nil {
		p.Stream.Emit(at, StageMerge, uint8(e.Kind), out, e.Seq, cycle)
	}
}

// RegisterProbe instruments one aggregated shared register: the
// staleness histogram (cycles a delta waited in its aggregation bank
// before draining into the main array, the paper's §4 bounded-staleness
// figure) and the commit trace stream.
type RegisterProbe struct {
	Stream  *Stream
	Lag     *Histogram // cycles buffered before drain
	Drained *Counter
}

// NewRegisterProbe creates a register's instruments under
// "sw.<sw>.reg.<reg>.".
func (c *Collector) NewRegisterProbe(sw, reg string) *RegisterProbe {
	pre := "sw." + sw + ".reg." + reg + "."
	return &RegisterProbe{
		Stream:  c.Stream("sw." + sw + ".reg." + reg),
		Lag:     c.reg.Histogram(pre + "staleness.cycles"),
		Drained: c.reg.Counter(pre + "drained"),
	}
}

// ObserveDrain records one delta draining into the main array after
// waiting lag cycles.
func (p *RegisterProbe) ObserveDrain(at sim.Time, idx uint32, lag uint64) {
	p.Drained.Inc()
	p.Lag.Observe(lag)
	if p.Stream != nil {
		p.Stream.Emit(at, StageCommit, KindRegister, OutNone, uint64(idx), lag)
	}
}
