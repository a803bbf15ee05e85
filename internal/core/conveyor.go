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
// identical to per-event scheduling.

// pipeEntry is one packet riding the pipeline conveyor: the
// pipeline-latency delay between its slot and the traffic manager. The
// entry's (at, seq) are the exact coordinates the equivalent scheduler
// event would have carried — at is slot time + pipelineLatency cycles,
// seq was drawn from the shared counter when the slot finished — so the
// conveyor is FIFO in (at, seq) by construction.
type pipeEntry struct {
	pkt      *packet.Packet
	port     int
	flowHash uint64
	at       sim.Time
	seq      uint64
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
// traffic manager pipelineLatency cycles after its slot. The handoff is
// a conveyor append — no heap event, no allocation.
func (s *Switch) enqueueOutDelayed(pkt *packet.Packet, port int, flowHash uint64) {
	at := s.sched.Now() + sim.Time(pipelineLatency)*s.cycleTime
	seq := s.sched.NextSeq()
	s.pipe.Push(pipeEntry{pkt: pkt, port: port, flowHash: flowHash, at: at, seq: seq})
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

// auxArm points the aux lane at the earliest conveyor entry — the pipe
// head or a pending tx completion, remembering which in auxIdx (its index
// in txPend, -1 for the pipe head) — or disarms it when the conveyor is
// empty. The invariant — the aux lane is always armed at the conveyor
// minimum's exact coordinates — is what lets NextAt and partition
// windows see conveyor work.
func (s *Switch) auxArm() {
	at, seq, idx, ok := sim.Time(0), uint64(0), -1, false
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
	if !ok {
		s.auxLane.Disarm()
		return
	}
	s.auxLane.ArmExact(at, seq)
	s.auxIdx = idx
}

// auxRun fires on the aux lane: it runs the conveyor entry the lane was
// armed for (the clock is already at its instant) and re-arms the lane at
// the new minimum, one entry per firing, like the heap event it replaced.
func (s *Switch) auxRun() {
	if idx := s.auxIdx; idx >= 0 {
		port, last := s.txPend[idx].port, len(s.txPend)-1
		s.txPend[idx] = s.txPend[last]
		s.txPend = s.txPend[:last]
		s.auxArm()
		s.txComplete(port)
		return
	}
	e := s.pipe.Pop()
	s.auxArm()
	s.enqueueOut(e.pkt, e.port, e.flowHash)
}
