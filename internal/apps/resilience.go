package apps

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// FRRConfig parameterizes data-plane fast re-route (paper §3 Network
// Management and §5: "when a link failure is detected, the prototype
// updates its forwarding decisions immediately to send packets along a
// backup route").
type FRRConfig struct {
	// Primary and Backup map destination ToR/prefix index -> output port.
	Primary map[int]int
	Backup  map[int]int
	// NoLinkEvents omits the LinkStatusChange handler so the program
	// loads on a baseline architecture; port state then only changes via
	// SetPortState — i.e. through the control plane.
	NoLinkEvents bool
}

// FRR forwards on the primary port while its link is up and fails over to
// the backup within one LinkStatusChange event — no control-plane
// involvement.
type FRR struct {
	cfg    FRRConfig
	linkUp [64]bool

	// Failovers counts re-route transitions; RoutedPrimary/RoutedBackup
	// count forwarded packets by path.
	Failovers     uint64
	RoutedPrimary uint64
	RoutedBackup  uint64
}

// NewFRR builds the re-router and its program.
func NewFRR(cfg FRRConfig) (*FRR, *pisa.Program) {
	r := &FRR{cfg: cfg}
	for i := range r.linkUp {
		r.linkUp[i] = true
	}
	p := pisa.NewProgram("fast-reroute")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if !ctx.FlowOK {
			ctx.Drop()
			return
		}
		// The destination index is the /16 of the destination address,
		// the one-prefix-per-destination plan of every experiment.
		dst := int(uint32(ctx.Flow.Dst) >> 16)
		prim, ok := cfg.Primary[dst]
		if !ok {
			ctx.Drop()
			return
		}
		if r.linkUp[prim] {
			r.RoutedPrimary++
			ctx.EgressPort = prim
			return
		}
		if backup, ok := cfg.Backup[dst]; ok {
			r.RoutedBackup++
			ctx.EgressPort = backup
			return
		}
		ctx.Drop()
	})
	if !cfg.NoLinkEvents {
		p.HandleFunc(events.LinkStatusChange, func(ctx *pisa.Context) {
			r.SetPortState(ctx.Ev.Port, ctx.Ev.Up)
		})
	}
	return r, p
}

// SetPortState updates the router's view of a port and counts failover
// transitions. The event handler calls it with LinkStatusChange state;
// a baseline architecture, which never sees those events, must instead
// reach it out-of-band through the control plane (controlplane.Agent.Do
// from a network OnLinkChange observer) — paying the control channel's
// latency on every convergence. The resilience experiments compare
// exactly these two paths.
func (r *FRR) SetPortState(port int, up bool) {
	if port < 0 || port >= len(r.linkUp) {
		return
	}
	if r.linkUp[port] && !up {
		r.Failovers++
	}
	r.linkUp[port] = up
}

// LivenessConfig parameterizes the data-plane liveness monitor (paper §5:
// periodic echo requests to neighbors; failure notifications to a central
// monitor with no control-plane intervention).
type LivenessConfig struct {
	SwitchID uint32
	// Ports to probe.
	ProbePorts []int
	// Period between probe rounds.
	Period sim.Time
	// DeadAfter misses marks a neighbor dead.
	DeadAfter int
	// MonitorPort is where ReportNeighborDown frames are sent.
	MonitorPort int
}

// Liveness implements the echo protocol: timer events transmit echo
// requests on each probed port and age reply state; neighbors answer
// echo requests in their own data plane; a missing-reply streak raises a
// notification to the monitor.
type Liveness struct {
	cfg    LivenessConfig
	seq    uint16
	misses map[int]int
	alive  map[int]bool

	// Notifications records (port, time) of neighbor-down reports.
	Notifications []PortEvent
	// Recoveries records neighbors coming back.
	Recoveries  []PortEvent
	RepliesSeen uint64
}

// PortEvent is a timestamped per-port observation.
type PortEvent struct {
	Port int
	At   sim.Time
}

// NewLiveness builds the monitor and its program.
func NewLiveness(cfg LivenessConfig) (*Liveness, *pisa.Program) {
	if cfg.Period <= 0 {
		cfg.Period = sim.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	lv := &Liveness{cfg: cfg, misses: make(map[int]int), alive: make(map[int]bool)}
	for _, port := range cfg.ProbePorts {
		lv.alive[port] = true
	}
	p := pisa.NewProgram("liveness")

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if packet.EtherTypeOf(ctx.Pkt.Data) != packet.EtherTypeEcho || !ctx.Has(packet.LayerEcho) {
			ctx.Drop() // this program only speaks the echo protocol
			return
		}
		e := ctx.Parsed.Echo
		switch e.Op {
		case packet.EchoRequest:
			// Answer in the data plane: swap to a reply out the arrival
			// port.
			reply := packet.Echo{
				Op: packet.EchoReply, Port: uint8(ctx.Pkt.InPort),
				Seq: e.Seq, Origin: e.Origin,
			}
			data := packet.BuildControlFrame(packet.Broadcast,
				packet.MACFromUint64(uint64(cfg.SwitchID)), &reply)
			ctx.Emit(data, ctx.Pkt.InPort)
			ctx.Drop()
		case packet.EchoReply:
			lv.RepliesSeen++
			port := ctx.Pkt.InPort
			lv.misses[port] = 0
			if !lv.alive[port] {
				lv.alive[port] = true
				lv.Recoveries = append(lv.Recoveries, PortEvent{Port: port, At: ctx.Now})
			}
			ctx.Drop()
		}
	})

	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		for _, port := range cfg.ProbePorts {
			lv.misses[port]++
			if lv.misses[port] > cfg.DeadAfter && lv.alive[port] {
				lv.alive[port] = false
				lv.Notifications = append(lv.Notifications, PortEvent{Port: port, At: ctx.Now})
				rep := &packet.Report{
					Kind: packet.ReportNeighborDown, Switch: cfg.SwitchID,
					V0: uint64(port),
				}
				ctx.Emit(packet.BuildControlFrame(packet.Broadcast,
					packet.MACFromUint64(uint64(cfg.SwitchID)), rep), cfg.MonitorPort)
			}
			req := &packet.Echo{Op: packet.EchoRequest, Seq: lv.seq, Origin: cfg.SwitchID}
			ctx.Emit(packet.BuildControlFrame(packet.Broadcast,
				packet.MACFromUint64(uint64(cfg.SwitchID)), req), port)
		}
		lv.seq++
	})
	return lv, p
}

// Arm configures the probe timer.
func (lv *Liveness) Arm(sw *core.Switch) error {
	return sw.ConfigureTimer(0, lv.cfg.Period)
}

// Alive reports the monitor's view of a port's neighbor.
func (lv *Liveness) Alive(port int) bool { return lv.alive[port] }

// EchoResponder returns a minimal program that answers echo requests (for
// neighbor switches that run nothing else) and forwards other traffic to
// the given port.
func EchoResponder(switchID uint32, egress int) *pisa.Program {
	p := pisa.NewProgram("echo-responder")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if packet.EtherTypeOf(ctx.Pkt.Data) == packet.EtherTypeEcho && ctx.Has(packet.LayerEcho) {
			e := ctx.Parsed.Echo
			if e.Op == packet.EchoRequest {
				reply := packet.Echo{
					Op: packet.EchoReply, Port: uint8(ctx.Pkt.InPort),
					Seq: e.Seq, Origin: e.Origin,
				}
				ctx.Emit(packet.BuildControlFrame(packet.Broadcast,
					packet.MACFromUint64(uint64(switchID)), &reply), ctx.Pkt.InPort)
			}
			ctx.Drop()
			return
		}
		ctx.EgressPort = egress
	})
	return p
}
