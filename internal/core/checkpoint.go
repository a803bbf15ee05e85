package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/sim"
)

// This file is the switch half of the checkpoint protocol (DESIGN.md
// §13). Checkpoint walks every mutable datum of a running switch —
// staging queues, event FIFOs, program externs, the TM, in-flight
// pipeline jobs and transmissions, timers/generators, stats, and the
// packet pool — plus the (at, seq) coordinates of every pending
// scheduler event the switch owns. Saving writes them; loading pours
// them into a switch rebuilt through the identical construction path
// (same Config, same Load, same ConfigureTimer/AddGenerator/
// EnableTelemetry calls), re-creating the pending events with their
// original coordinates so the resumed schedule replays the
// uninterrupted one exactly.

// checkpointFIFO walks a staging queue: its length, then its packets
// oldest first. A short or corrupt section leaves the codec failed.
func checkpointFIFO(c *checkpoint.Codec, pool *packet.Pool, f *sim.FIFO[*packet.Packet]) {
	n := c.Len(f.Len())
	if c.Loading() {
		f.Refill(n)
	}
	live := f.Live()
	for i := range live {
		pool.CheckpointPacket(c, &live[i])
	}
}

// each visits every counter in checkpoint order. Checkpoint walks it in both
// directions, so a counter added here is saved and loaded, and one left out
// fails TestStatsVisitorCoversEveryCounter.
func (st *Stats) each(f func(*uint64)) {
	for _, c := range [...]*uint64{
		&st.RxPackets, &st.RxBytes, &st.TxPackets, &st.TxBytes,
		&st.RxDropped, &st.TxDroppedLinkDown, &st.PipelineDrops,
		&st.Cycles, &st.PacketSlots, &st.EmptySlots, &st.DrainSlots,
	} {
		f(c)
	}
	for k := 0; k < events.NumKinds; k++ {
		f(&st.EventsMerged[k])
		f(&st.EventsDropped[k])
		f(&st.EventsCoalesced[k])
		f(&st.EventsShed[k])
	}
	f(&st.Recirculated)
	f(&st.Generated)
}

// checkpointTicker walks a ticker: whether it is stopped and, if a firing
// is pending, its coordinates. Loading cancels the firing the rebuilt
// ticker armed at construction and replays the checkpointed one.
func checkpointTicker(c *checkpoint.Codec, t *sim.Ticker) {
	st := t.State()
	c.Bool(&st.Stopped)
	checkpointCoord(c, &st.Pending, &st.At, &st.Seq)
	if c.Loaded() {
		t.RestoreState(st)
	}
}

// checkpointCoord walks a pending/at/seq triple, the coordinates of a
// scheduler event that has no pending twin written as zeros.
func checkpointCoord(c *checkpoint.Codec, pending *bool, at *sim.Time, seq *uint64) {
	if !*pending {
		*at, *seq = 0, 0
	}
	c.Bool(pending)
	c.I64((*int64)(at))
	c.U64(seq)
}

// Checkpoint walks the switch at a cycle boundary (nothing mid-slot: call
// it only from a scheduler event, never from inside runCycle). Loading
// must run before the scheduler's clock is restored (so re-created events
// are never in the past) and before any traffic is offered.
func (s *Switch) Checkpoint(c *checkpoint.Codec) {
	what := "core: switch " + s.cfg.Name

	// Cycle machinery.
	c.I64((*int64)(&s.nextCycleAt))
	c.U64(&s.cycleIdx)
	laneAt, laneSeq, laneArmed := s.cycleLane.ArmedAt()
	c.Bool(&laneArmed)
	c.I64((*int64)(&laneAt))
	c.U64(&laneSeq)
	if c.Loaded() && laneArmed {
		s.cycleLane.ArmExact(laneAt, laneSeq)
	}

	// Packet staging queues.
	for p := range s.rxq {
		checkpointFIFO(c, s.pool, &s.rxq[p])
	}
	c.Int(&s.rxRR)
	c.Bool(&s.lastRecirc)
	checkpointFIFO(c, s.pool, &s.recirc)
	checkpointFIFO(c, s.pool, &s.genq)

	// Event FIFOs and the merger's arrival counter.
	for k := 0; k < events.NumKinds; k++ {
		s.evq[k].Checkpoint(c)
	}
	c.U64(&s.evSeq)
	if c.Loading() {
		// Rebuild the derived O(1) work-check state from the loaded queues.
		s.rxPending, s.evMask = 0, 0
		for p := range s.rxq {
			s.rxPending += s.rxq[p].Len()
		}
		for k := 0; k < events.NumKinds; k++ {
			if s.evq[k].Len() > 0 {
				s.evMask |= 1 << uint(k)
			}
		}
	}

	// Program externs.
	c.FixedBool(what+": program loaded", s.prog != nil)
	if s.prog != nil {
		s.prog.Checkpoint(c)
	}

	// Traffic manager (buffered packets ride along).
	s.tmgr.Checkpoint(c, s.pool)

	// Per-port link/tx state. The format carries a transmitter-busy byte
	// next to the has-packet byte; busy is "a packet is on the wire", so
	// both are written from txPkt. Loading rebuilds txPend from the
	// per-port completions, so while it runs no port finds one there yet.
	if c.Loading() {
		s.txPend = s.txPend[:0]
	}
	for p := 0; p < s.cfg.Ports; p++ {
		busy := s.txPkt[p] != nil
		hasTx := busy
		c.Bool(&s.linkUp[p])
		c.Bool(&busy)
		c.Bool(&hasTx)
		if hasTx {
			s.pool.CheckpointPacket(c, &s.txPkt[p])
		}
		td, pend := txDone{port: p}, false
		for _, d := range s.txPend {
			if d.port == p {
				td, pend = d, true
			}
		}
		checkpointCoord(c, &pend, &td.at, &td.seq)
		if !c.Loaded() {
			continue
		}
		// A transmitter is busy exactly while it holds a packet whose
		// completion is pending; any other combination would resume into a
		// completion with no packet, or a port that never transmits again.
		if busy != hasTx || busy != pend {
			c.Fail(fmt.Errorf("%s: port %d: snapshot tx state disagrees (busy=%v packet=%v completion=%v)", what, p, busy, hasTx, pend))
		} else if pend {
			s.txPend = append(s.txPend, td)
		}
	}

	// In-flight pipeline conveyor entries, oldest first. The conveyor is
	// FIFO in (at, seq), which is exactly the event-seq order the old
	// heap-based encoding sorted into, so the section bytes are unchanged.
	n := c.Len(s.pipe.Len())
	if c.Loading() {
		s.pipe.Refill(n)
	}
	live := s.pipe.Live()
	for i := range live {
		en := &live[i]
		s.pool.CheckpointPacket(c, &en.pkt)
		c.Int(&en.port)
		c.U64(&en.flowHash)
		c.I64((*int64)(&en.at))
		c.U64(&en.seq)
	}
	if c.Loaded() {
		// Re-arm the aux lane at the loaded conveyor's minimum: the entries
		// carry their original coordinates, so the resumed schedule fires
		// them in exactly the uninterrupted order.
		s.auxArm()
	}

	// Hardware timers and generators.
	c.FixedInt(what+": timers", len(s.timers))
	for _, t := range s.timers {
		c.FixedBool(what+": timer armed", t != nil)
		if t != nil {
			checkpointTicker(c, t)
		}
	}
	c.FixedInt(what+": generators", len(s.gens))
	for _, g := range s.gens {
		c.U64(&g.seq)
		checkpointTicker(c, g.ticker)
	}

	// Lifetime counters.
	s.stats.each(c.U64)

	// Telemetry sampler ticker.
	c.FixedBool(what+": telemetry sampler", s.telSampler != nil)
	if s.telSampler != nil {
		checkpointTicker(c, s.telSampler)
	}

	// Pool last: its free-list depth and counters describe the state
	// after every live packet above was carved out of it.
	s.pool.Checkpoint(c)
}
