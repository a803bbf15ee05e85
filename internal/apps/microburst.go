// Package apps implements the paper's application classes (Table 2) and
// the §5 student projects as programs over the public pisa/core API:
//
//   - Microburst culprit detection (§2 running example) in two designs:
//     event-driven (enqueue/dequeue events, one register) and a
//     Snappy-style baseline (packet events only, multiple sketch
//     snapshots) for the ≥4x state comparison.
//   - HULA-style probing (Congestion Aware Forwarding).
//   - CMS with periodic reset, timer-driven vs control-plane-driven
//     (Network Monitoring; the §1 overhead argument).
//   - Token-bucket policing from timer events (Traffic Management).
//   - FRED-like fair AQM from enqueue/dequeue events (§5 project).
//   - Fast re-route from link-status events (Network Management, §5).
//   - Liveness monitoring echoes (§5 project).
//   - Time-windowed flow-rate measurement (§5 project).
//   - NetCache-style LRU cache with timer-aged statistics
//     (In-Network Computing).
package apps

import (
	"repro/internal/events"
	"repro/internal/pisa"
	"repro/internal/sketch"
)

// MicroburstConfig parameterizes microburst detection.
type MicroburstConfig struct {
	// Slots is the per-flow state size (register entries).
	Slots int
	// ThresholdBytes flags a flow whose buffered bytes exceed this.
	ThresholdBytes int
	// EgressPort is where detected traffic is forwarded.
	EgressPort int
}

// Microburst is the event-driven detector of the paper's §2: one
// shared_register of per-flow buffer occupancy, updated by enqueue and
// dequeue events and read by the ingress pipeline before the packet is
// buffered.
type Microburst struct {
	cfg MicroburstConfig
	reg *pisa.SharedRegister

	// Detections records flagged (flow slot, occupancy) pairs.
	Detections []Detection
}

// Detection is one flagged microburst culprit.
type Detection struct {
	FlowSlot  uint32
	Occupancy uint64
}

// NewMicroburst builds the detector and its program.
func NewMicroburst(cfg MicroburstConfig) (*Microburst, *pisa.Program) {
	if cfg.Slots <= 0 {
		cfg.Slots = 1024
	}
	if cfg.ThresholdBytes <= 0 {
		cfg.ThresholdBytes = 30000
	}
	m := &Microburst{cfg: cfg}
	p := pisa.NewProgram("microburst-event")
	m.reg = p.AddRegister(pisa.NewAggregatedRegister("flowBufSize", cfg.Slots,
		events.BufferEnqueue, events.BufferDequeue))

	slotOf := func(h uint64) uint32 { return uint32(h % uint64(cfg.Slots)) }

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if !ctx.FlowOK {
			return
		}
		slot := slotOf(ctx.Ev.FlowHash)
		occ := m.reg.Read(ctx, slot)
		if occ > uint64(cfg.ThresholdBytes) {
			m.Detections = append(m.Detections, Detection{FlowSlot: slot, Occupancy: occ})
		}
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		m.reg.Add(ctx, slotOf(ctx.Ev.FlowHash), int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		m.reg.Add(ctx, slotOf(ctx.Ev.FlowHash), -int64(ctx.Ev.PktLen))
	})
	return m, p
}

// StateBytes reports the detector's stateful memory: one 32-bit register
// per slot plus its two aggregation banks (the Figure 3 hardware), as the
// paper's accounting counts register state.
func (m *Microburst) StateBytes() int {
	// Main register: 4 bytes per slot. Each aggregation bank holds a
	// 4-byte pending delta per slot.
	return m.cfg.Slots * 4 * 3
}

// SnappyConfig parameterizes the baseline detector.
type SnappyConfig struct {
	// Snapshots is the number of rotating sketch snapshots (Snappy used
	// multiple register-array snapshots to approximate occupancy).
	Snapshots int
	// Rows and Width size each snapshot's count-min sketch.
	Rows, Width int
	// WindowPkts is how many packets a snapshot covers before rotation.
	WindowPkts int
	// ThresholdBytes flags a flow whose estimated buffered bytes exceed
	// this.
	ThresholdBytes int
	// EgressPort is where traffic is forwarded.
	EgressPort int
}

// Snappy is the baseline-PISA detector modeled on "Catching the
// Microburst Culprits with Snappy" (paper's reference [3]): without
// enqueue/dequeue events it can only *approximate* queue occupancy from
// packet arrivals, keeping multiple rotating sketch snapshots whose sum
// estimates bytes likely still in the buffer. It needs several times the
// state of the event-driven design and is approximate where the
// event-driven design is exact.
type Snappy struct {
	cfg    SnappyConfig
	snaps  []*sketch.CMS
	active int
	pkts   int

	Detections []Detection
}

// NewSnappy builds the baseline detector and its (packet-events-only)
// program.
func NewSnappy(cfg SnappyConfig) (*Snappy, *pisa.Program) {
	if cfg.Snapshots <= 0 {
		cfg.Snapshots = 4
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 3
	}
	if cfg.Width <= 0 {
		cfg.Width = 1024
	}
	if cfg.WindowPkts <= 0 {
		cfg.WindowPkts = 64
	}
	if cfg.ThresholdBytes <= 0 {
		cfg.ThresholdBytes = 30000
	}
	s := &Snappy{cfg: cfg}
	for i := 0; i < cfg.Snapshots; i++ {
		s.snaps = append(s.snaps, sketch.NewCMS(cfg.Rows, cfg.Width))
	}
	p := pisa.NewProgram("microburst-snappy")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if !ctx.FlowOK {
			return
		}
		key := ctx.Ev.FlowHash
		// Rotate snapshots by packet count — the only clock a baseline
		// data plane has.
		s.pkts++
		if s.pkts%cfg.WindowPkts == 0 {
			s.active = (s.active + 1) % cfg.Snapshots
			s.snaps[s.active].Reset()
		}
		s.snaps[s.active].Update(key, uint64(ctx.Pkt.Len()))
		var est uint64
		for _, sn := range s.snaps {
			est += sn.Estimate(key)
		}
		if est > uint64(cfg.ThresholdBytes) {
			s.Detections = append(s.Detections, Detection{
				FlowSlot: uint32(key % uint64(cfg.Width)), Occupancy: est,
			})
		}
	})
	return s, p
}

// StateBytes reports the baseline's stateful memory: all snapshots'
// counters.
func (s *Snappy) StateBytes() int {
	total := 0
	for _, sn := range s.snaps {
		total += sn.MemoryBytes()
	}
	return total
}
