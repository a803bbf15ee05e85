package apps

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// HULAConfig parameterizes a HULA-style congestion-aware load balancer
// (paper §3, Congestion Aware Forwarding; HULA is the paper's reference
// [14]).
type HULAConfig struct {
	// TorID identifies this switch when it originates probes.
	TorID uint16
	// ProbePeriod is how often the data plane's packet generator emits
	// probes (the capability baseline PISA lacks).
	ProbePeriod sim.Time
	// UplinkPorts are the ports toward the spine layer.
	UplinkPorts []int
	// HostPort is the port toward attached hosts.
	HostPort int
	// Tors is the number of ToR switches (sizes the best-hop table).
	Tors int
}

// hulaUtilDecayShift ages the local link-utilization estimate
// (EWMA-by-shift on each utilization tick).
const hulaUtilDecayShift = 2

// HULA implements the probe-driven path selection core of HULA on one
// switch: probes flood from each ToR carrying the max link utilization
// along their path; switches remember, per destination ToR, the best
// next hop and its path utilization, and forward data packets to the
// best hop.
type HULA struct {
	cfg HULAConfig

	// bestHop[tor] and bestUtil[tor] are HULA's per-destination state.
	bestHop  []int
	bestUtil []uint32

	// linkTxBytes accumulates per-port transmitted bytes; a timer
	// converts them to utilization in millionths of line rate.
	linkTxBytes []uint64
	linkUtil    []uint32

	// ProbesSeen counts probes processed; ProbesSent counts originated.
	ProbesSeen uint64
	ProbesSent uint64

	sw           *core.Switch
	utilInterval sim.Time

	// probeScratch and the scratch frame buffers below are reused across
	// probe emissions: the switch core copies generator/Emit frames into
	// pooled packets before the buffers are touched again, so per-probe
	// serialization allocates nothing in steady state.
	probeScratch packet.Probe
	genBuf       []byte
	emitBufs     [][]byte
}

// NewHULA builds the balancer program for one switch. Call Attach after
// loading to arm the generator and utilization timer.
func NewHULA(cfg HULAConfig) (*HULA, *pisa.Program) {
	if cfg.ProbePeriod <= 0 {
		cfg.ProbePeriod = 100 * sim.Microsecond
	}
	if cfg.Tors <= 0 {
		cfg.Tors = 16
	}
	h := &HULA{
		cfg:         cfg,
		bestHop:     make([]int, cfg.Tors),
		bestUtil:    make([]uint32, cfg.Tors),
		linkTxBytes: make([]uint64, 64),
		linkUtil:    make([]uint32, 64),
	}
	for i := range h.bestHop {
		h.bestHop[i] = -1
		h.bestUtil[i] = ^uint32(0)
	}

	p := pisa.NewProgram("hula")

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		// Probe packets: update best-hop state, then forward the probe
		// onward (toward hosts-side it stops here; flooding across the
		// fabric is done by the spine copies).
		if packet.EtherTypeOf(ctx.Pkt.Data) == packet.EtherTypeProbe && ctx.Has(packet.LayerProbe) {
			h.handleProbe(ctx)
			return
		}
		// Data packets toward a remote ToR: pick the best uplink. The
		// destination ToR is derived from the IP (one /16 per ToR in the
		// experiment's addressing plan).
		if !ctx.FlowOK {
			ctx.Drop()
			return
		}
		tor := int(uint32(ctx.Flow.Dst)>>16) % cfg.Tors
		if tor == int(cfg.TorID) {
			ctx.EgressPort = cfg.HostPort
			return
		}
		if hop := h.bestHop[tor]; hop >= 0 {
			ctx.EgressPort = hop
			return
		}
		// No probe state yet: hash across uplinks (ECMP fallback).
		ctx.EgressPort = cfg.UplinkPorts[int(ctx.Ev.FlowHash%uint64(len(cfg.UplinkPorts)))]
	})

	// Track transmitted bytes per port for the utilization estimate.
	p.HandleFunc(events.PacketTransmitted, func(ctx *pisa.Context) {
		if ctx.Ev.Port >= 0 && ctx.Ev.Port < len(h.linkTxBytes) {
			h.linkTxBytes[ctx.Ev.Port] += uint64(ctx.Ev.PktLen) + core.WireOverhead
		}
	})

	// Timer 0: refresh per-port utilization from the byte counters.
	// Timer 1: age best-path utilization so stale paths are retried.
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		switch ctx.Ev.TimerID {
		case 0:
			h.refreshUtil()
		case 1:
			for i := range h.bestUtil {
				if h.bestUtil[i] != ^uint32(0) {
					h.bestUtil[i] += h.bestUtil[i] >> 2 // decay toward re-exploration
				}
			}
		}
	})

	// Probes entering via the generator (this switch originates them).
	p.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) {
		// Generated probes flood all uplinks: emit copies on every
		// uplink but the first, and forward the original on the first.
		if len(cfg.UplinkPorts) == 0 {
			ctx.Drop()
			return
		}
		for _, port := range cfg.UplinkPorts[1:] {
			// The slot packet stays live until the core copies the
			// emitted frames into pooled packets, so its bytes can be
			// emitted directly without a defensive copy.
			ctx.Emit(ctx.Pkt.Data, port)
		}
		ctx.EgressPort = cfg.UplinkPorts[0]
	})
	return h, p
}

// handleProbe processes an incoming probe on ctx's switch.
func (h *HULA) handleProbe(ctx *pisa.Context) {
	h.ProbesSeen++
	pr := ctx.Parsed.Probe
	tor := int(pr.TorID) % h.cfg.Tors
	inPort := ctx.Pkt.InPort

	// Fold the local receive-link utilization into the path maximum.
	util := pr.MaxUtil
	if inPort >= 0 && inPort < len(h.linkUtil) && h.linkUtil[inPort] > util {
		util = h.linkUtil[inPort]
	}

	// Better path (or refresh of the current best hop)?
	if util <= h.bestUtil[tor] || h.bestHop[tor] == inPort || h.bestHop[tor] < 0 {
		h.bestUtil[tor] = util
		h.bestHop[tor] = inPort
	}
	// ToR switches do not propagate probes further (two-level fabric);
	// spine switches flood them to all other ports. The experiment
	// wires spine behaviour via SpineProbeRelay.
	ctx.Drop()
}

// refreshUtil converts byte counters into utilization (millionths of the
// line rate over the refresh interval) and decays them.
func (h *HULA) refreshUtil() {
	if h.sw == nil {
		return
	}
	rate := h.sw.Config().LineRate
	interval := h.utilInterval
	if interval <= 0 {
		return
	}
	capacity := uint64(rate) / 8 * uint64(interval) / uint64(sim.Second) // bytes per interval
	if capacity == 0 {
		return
	}
	for i := range h.linkTxBytes {
		u := h.linkTxBytes[i] * 1_000_000 / capacity
		if u > 1_000_000 {
			u = 1_000_000
		}
		// Rise immediately, decay by EWMA: classic HULA behaviour.
		old := int64(h.linkUtil[i])
		if int64(u) >= old {
			h.linkUtil[i] = uint32(u)
		} else {
			h.linkUtil[i] = uint32(old + ((int64(u) - old) >> hulaUtilDecayShift))
		}
		h.linkTxBytes[i] = 0
	}
}

// Attach arms the switch's generator and timers for this balancer:
// probes every ProbePeriod and utilization refresh every refresh.
func (h *HULA) Attach(sw *core.Switch, refresh sim.Time) error {
	h.sw = sw
	h.utilInterval = refresh
	if err := sw.ConfigureTimer(0, refresh); err != nil {
		return err
	}
	if err := sw.ConfigureTimer(1, 8*refresh); err != nil {
		return err
	}
	return sw.AddGenerator(h.cfg.ProbePeriod, func(seq uint64) ([]byte, int) {
		h.ProbesSent++
		h.probeScratch = packet.Probe{
			TorID: h.cfg.TorID,
			Seq:   uint32(seq),
		}
		h.genBuf = packet.AppendControlFrame(h.genBuf[:0], packet.Broadcast,
			packet.MACFromUint64(uint64(h.cfg.TorID)), &h.probeScratch)
		return h.genBuf, -1
	})
}

// BestHop reports the current best next hop and path utilization toward
// a ToR.
func (h *HULA) BestHop(tor int) (port int, util uint32) {
	return h.bestHop[tor%h.cfg.Tors], h.bestUtil[tor%h.cfg.Tors]
}

// SpineProbeRelay returns a program for a spine switch in the HULA
// fabric: probes arriving on one port are re-stamped with the maximum of
// their path utilization and the spine's local link utilization, then
// flooded to every other port; data packets route back to the ToR that
// owns the destination /16.
func SpineProbeRelay(ports int, tors int, torPortOf func(tor int) int) (*HULA, *pisa.Program) {
	h := &HULA{
		cfg:         HULAConfig{Tors: tors},
		linkTxBytes: make([]uint64, 64),
		linkUtil:    make([]uint32, 64),
	}
	p := pisa.NewProgram("hula-spine")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if packet.EtherTypeOf(ctx.Pkt.Data) == packet.EtherTypeProbe && ctx.Has(packet.LayerProbe) {
			h.ProbesSeen++
			pr := ctx.Parsed.Probe
			util := pr.MaxUtil
			// The spine knows the utilization of each of its links; the
			// probe's path includes the egress link it will take, so
			// each copy carries max(path, that link).
			nEmit := 0
			for port := 0; port < ports; port++ {
				if port == ctx.Pkt.InPort {
					continue
				}
				u := util
				if h.linkUtil[port] > u {
					u = h.linkUtil[port]
				}
				// One scratch buffer per emitted copy: every buffer must
				// stay live until the core copies the emitted frames into
				// pooled packets at the end of the slot.
				if len(h.emitBufs) <= nEmit {
					h.emitBufs = append(h.emitBufs, nil)
				}
				h.probeScratch = packet.Probe{
					TorID: pr.TorID, PathID: pr.PathID,
					MaxUtil: u, Hops: pr.Hops + 1, Seq: pr.Seq,
				}
				h.emitBufs[nEmit] = packet.AppendControlFrame(h.emitBufs[nEmit][:0],
					packet.Broadcast, packet.MACFromUint64(uint64(pr.TorID)), &h.probeScratch)
				ctx.Emit(h.emitBufs[nEmit], port)
				nEmit++
			}
			ctx.Drop()
			return
		}
		if !ctx.FlowOK {
			ctx.Drop()
			return
		}
		tor := int(uint32(ctx.Flow.Dst)>>16) % tors
		ctx.EgressPort = torPortOf(tor)
	})
	p.HandleFunc(events.PacketTransmitted, func(ctx *pisa.Context) {
		if ctx.Ev.Port >= 0 && ctx.Ev.Port < len(h.linkTxBytes) {
			h.linkTxBytes[ctx.Ev.Port] += uint64(ctx.Ev.PktLen) + core.WireOverhead
		}
	})
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		if ctx.Ev.TimerID == 0 {
			h.refreshUtil()
		}
	})
	return h, p
}

// AttachSpine arms the spine's utilization timer.
func (h *HULA) AttachSpine(sw *core.Switch, refresh sim.Time) error {
	h.sw = sw
	h.utilInterval = refresh
	return sw.ConfigureTimer(0, refresh)
}
