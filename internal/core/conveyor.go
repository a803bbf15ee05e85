package core

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// The conveyor: the switch's own future work — pipeline-latency
// deliveries to the TM and per-port tx completions — kept out of the
// scheduler's heap. Every entry is stamped with the exact (at, seq)
// coordinates the equivalent scheduler event would have had (the seq
// is drawn from the shared counter at schedule time), and the aux
// lane is armed at the earliest entry's coordinates, so firing order
// against heap events, wire arrivals, and other lanes is byte-
// identical to per-event scheduling. The burst loop fires due entries
// inline, skipping the per-event dispatch entirely.

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
	s.pipe.Push(pipeEntry{
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
	if s.pipe.Len() > 0 {
		e := s.pipe.Peek()
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
	e := s.pipe.Pop()
	if !s.inBurst {
		s.auxArm()
	}
	s.enqueueOut(e.pkt, e.port, e.q, e.rank, e.flowHash)
}

// auxRun fires on the aux lane: deliver the entry the lane was armed
// for, then — burst mode — keep delivering consecutive entries inline
// (auxRunUpTo, the same proof the burst slot loop uses). In per-packet
// oracle mode, or with a conveyor too shallow for the continuation loop to
// beat plain dispatch, each dispatch delivers exactly one entry, like the
// heap event it replaced.
func (s *Switch) auxRun() {
	depth := s.conveyorDepth()
	if depth == 0 {
		return
	}
	if s.cfg.NoBurst || depth < burstEngageDepth {
		s.auxFire(s.auxIdx)
		return
	}
	s.inBurst = true
	s.auxFire(s.auxIdx)
	s.auxRunUpTo(sim.Forever)
	s.inBurst = false
	s.auxArm()
}

// auxRunUpTo runs, inline and earliest first, every conveyor entry due at
// or before upto, for as long as the scheduler would have done nothing
// else first: the entry lies inside the run horizon and nothing the
// scheduler holds precedes its (at, seq). It reports false when that
// proof failed with an entry still due — the caller's burst must end and
// leave the entry to ordinary dispatch. Call only with inBurst set.
func (s *Switch) auxRunUpTo(upto sim.Time) bool {
	for {
		at, seq, idx, ok := s.auxMin()
		if !ok || at > upto {
			return true
		}
		if s.beyondRun(at) || s.sched.NextBefore(at, seq) {
			return false
		}
		s.sched.AdvanceTo(at)
		s.auxFire(idx)
	}
}
