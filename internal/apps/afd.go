package apps

import (
	"repro/internal/events"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// AFDConfig parameterizes Approximate Fair Dropping (paper §3 lists AFD
// among the AQM algorithms; Pan et al., CCR 2003).
type AFDConfig struct {
	EgressPort int
	// Slots sizes the per-flow arrival-rate table (the shadow buffer's
	// aggregation).
	Slots int
	// Interval is the measurement window (the timer event's period).
	Interval sim.Time
	// TargetBytes is the occupancy setpoint the fair share adapts to.
	TargetBytes int64
}

// AFD drops proportionally to how far a flow's arrival rate exceeds the
// current fair share: per-flow arrival bytes accumulate in a register
// indexed like a shadow buffer; a timer event closes each window,
// derives the fair share from the occupancy error (MIMD on the
// setpoint), and the ingress pipeline drops flow packets with
// probability 1 - fair/arrived.
type AFD struct {
	cfg AFDConfig
	occ *pisa.SharedRegister
	rng *sim.RNG

	// arrivals holds the closing window's per-slot byte counts (the
	// data plane would double-buffer two register arrays; the previous
	// window is read-only to the ingress pipeline).
	arrivals []uint64
	prev     []uint64
	fair     float64

	Dropped, Passed uint64
}

// NewAFD builds the AQM and its program.
func NewAFD(cfg AFDConfig, rng *sim.RNG) (*AFD, *pisa.Program) {
	if cfg.Slots <= 0 {
		cfg.Slots = 512
	}
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Millisecond
	}
	if cfg.TargetBytes <= 0 {
		cfg.TargetBytes = 30000
	}
	a := &AFD{
		cfg:      cfg,
		rng:      rng,
		arrivals: make([]uint64, cfg.Slots),
		prev:     make([]uint64, cfg.Slots),
	}
	// Start the fair share at the occupancy setpoint per window; MIMD
	// adapts it from there.
	a.fair = float64(cfg.TargetBytes)
	p := pisa.NewProgram("afd")
	a.occ = p.AddRegister(pisa.NewAggregatedRegister("occ", 1,
		events.BufferEnqueue, events.BufferDequeue))

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if !ctx.FlowOK {
			return
		}
		slot := ctx.Ev.FlowHash % uint64(cfg.Slots)
		a.arrivals[slot] += uint64(ctx.Pkt.Len())
		arrived := float64(a.prev[slot])
		if arrived > a.fair {
			// Drop with probability 1 - fair/arrived.
			if a.rng.Float64() > a.fair/arrived {
				a.Dropped++
				ctx.Drop()
				return
			}
		}
		a.Passed++
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		a.occ.Add(ctx, 0, int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		a.occ.Add(ctx, 0, -int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		// Close the window: swap buffers and adapt the fair share from
		// the occupancy error (multiplicative increase/decrease).
		a.prev, a.arrivals = a.arrivals, a.prev
		for i := range a.arrivals {
			a.arrivals[i] = 0
		}
		occ := int64(a.occ.Read(ctx, 0))
		switch {
		case occ > a.cfg.TargetBytes*5/4:
			a.fair *= 0.85
		case occ < a.cfg.TargetBytes*3/4:
			a.fair *= 1.3
		}
		if a.fair < 100 {
			a.fair = 100
		}
	})
	return a, p
}
