package apps

import (
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// INTTransitConfig parameterizes an INT transit switch (paper §3
// Network Monitoring: In-band Network Telemetry).
type INTTransitConfig struct {
	SwitchID   uint32
	EgressPort int
}

// INTTransit forwards traffic and pushes an INT hop record onto every
// instrumented packet: this switch's ID, the egress queue occupancy at
// admission (from enqueue/dequeue events), an estimated queueing latency,
// and the local timestamp. Receivers reconstruct per-hop congestion from
// the record stack — the fine-grain measurement INT provides.
type INTTransit struct {
	cfg INTTransitConfig
	occ *pisa.SharedRegister

	Pushed  uint64
	Skipped uint64 // instrumented packets whose stack was full
}

// NewINTTransit builds the transit program.
func NewINTTransit(cfg INTTransitConfig) (*INTTransit, *pisa.Program) {
	tr := &INTTransit{cfg: cfg}
	p := pisa.NewProgram("int-transit")
	tr.occ = p.AddRegister(pisa.NewAggregatedRegister("occ", 8,
		events.BufferEnqueue, events.BufferDequeue))

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if ctx.Pkt == nil || ctx.Pkt.Empty {
			return
		}
		occ := tr.occ.Read(ctx, uint32(cfg.EgressPort))
		// Estimated queueing latency at 10G: occupancy bytes * 0.8 ns.
		latency := uint32(occ * 8 / 10)
		data, ok := packet.INTPush(ctx.Pkt.Data, packet.INTRecord{
			SwitchID:    cfg.SwitchID,
			QueueBytes:  uint32(occ),
			LatencyNS:   latency,
			TimestampNS: uint64(ctx.Now.Nanoseconds()),
		})
		if ok {
			ctx.Pkt.Data = data
			tr.Pushed++
		} else if _, isINT := packet.INTRecords(ctx.Pkt.Data); isINT {
			tr.Skipped++
		}
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		tr.occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		tr.occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	return tr, p
}

// PIEConfig parameterizes the PIE AQM (paper §3 lists PIE among the AQM
// algorithms event-driven programming enables).
type PIEConfig struct {
	EgressPort int
	// TargetDelay is the queueing-delay setpoint.
	TargetDelay sim.Time
	// Update is the controller period (the timer event's period).
	Update sim.Time
}

// pieAlpha256 and pieBeta256 are PIE's PI gains in 1/256 units per ms of
// delay error.
const pieAlpha256, pieBeta256 = 32, 320

// PIE keeps queueing delay near a target with a proportional-integral
// controller: dequeue events measure the departure rate, a timer event
// updates the drop probability from the estimated delay, and the ingress
// pipeline drops probabilistically — all three event kinds the paper's
// Traffic Management row names.
type PIE struct {
	cfg PIEConfig
	occ *pisa.SharedRegister
	rng *sim.RNG

	departedBytes uint64
	drainRate     float64 // bytes per second, EWMA
	lastDelay     float64 // seconds
	prob256       int64

	Dropped, Passed uint64
	// DelaySamples records the estimated delay at each controller tick.
	DelaySamples *sim.Stats
}

// NewPIE builds the AQM and its program.
func NewPIE(cfg PIEConfig, rng *sim.RNG) (*PIE, *pisa.Program) {
	if cfg.TargetDelay <= 0 {
		cfg.TargetDelay = 100 * sim.Microsecond
	}
	if cfg.Update <= 0 {
		cfg.Update = sim.Millisecond
	}
	pie := &PIE{cfg: cfg, rng: rng, DelaySamples: sim.NewStats()}
	p := pisa.NewProgram("pie")
	pie.occ = p.AddRegister(pisa.NewAggregatedRegister("occ", 1,
		events.BufferEnqueue, events.BufferDequeue))

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if !ctx.FlowOK {
			return
		}
		if pie.prob256 > 0 && int64(pie.rng.Intn(256)) < pie.prob256 {
			pie.Dropped++
			ctx.Drop()
			return
		}
		pie.Passed++
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		pie.occ.Add(ctx, 0, int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		pie.occ.Add(ctx, 0, -int64(ctx.Ev.PktLen))
		pie.departedBytes += uint64(ctx.Ev.PktLen)
	})
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		interval := cfg.Update.Seconds()
		rate := float64(pie.departedBytes) / interval
		pie.departedBytes = 0
		if pie.drainRate == 0 {
			pie.drainRate = rate
		} else {
			pie.drainRate += (rate - pie.drainRate) / 8
		}
		var delay float64
		if pie.drainRate > 0 {
			delay = float64(pie.occ.Read(ctx, 0)) / pie.drainRate
		}
		pie.DelaySamples.Add(delay)
		target := cfg.TargetDelay.Seconds()
		// PI update, gains scaled per ms of error.
		pie.prob256 += int64(pieAlpha256*(delay-target)*1000) +
			int64(pieBeta256*(delay-pie.lastDelay)*1000)
		pie.lastDelay = delay
		if pie.prob256 < 0 {
			pie.prob256 = 0
		}
		if pie.prob256 > 255 {
			pie.prob256 = 255
		}
	})
	return pie, p
}
