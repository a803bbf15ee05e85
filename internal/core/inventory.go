package core

import "repro/internal/events"

// Monitoring views: event-FIFO occupancy and the in-flight packet
// population that closes the conservation identity.

// EventQueueDrops reports FIFO-full losses for a kind.
func (s *Switch) EventQueueDrops(k events.Kind) uint64 { return s.evq[k].Drops() }

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
		inv.RxQueued += s.rxq[p].Len()
	}
	inv.Recirc = s.recirc.Len()
	inv.GenQueued = s.genq.Len()
	inv.InPipeline = s.pipe.Len()
	enq, deq, _, _ := s.tmgr.Stats()
	inv.Buffered = int(enq - deq)
	for _, pkt := range s.txPkt {
		if pkt != nil {
			inv.OnWire++
		}
	}
	return inv
}
