package apps

import (
	"repro/internal/events"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// REDConfig parameterizes the RED AQM (paper §3 Traffic Management lists
// RED among the algorithms event-driven programming enables: it "need[s]
// access to several congestion signals in the ingress pipeline",
// here the smoothed queue occupancy from enqueue/dequeue events).
type REDConfig struct {
	// MinThresh and MaxThresh bound the drop ramp (bytes of smoothed
	// occupancy).
	MinThresh, MaxThresh int64
	// MaxP is the drop probability at MaxThresh, in 1/256 units (the
	// integer arithmetic a data plane uses).
	MaxP256    uint64
	EgressPort int
}

// redEWMAShift smooths the instantaneous occupancy (1/2^shift).
const redEWMAShift = 4

// RED implements Random Early Detection with congestion signals derived
// from buffer events: the instantaneous occupancy comes from
// enqueue/dequeue events, the average from an EWMA updated on each
// enqueue, and the drop decision happens in the ingress pipeline before
// the packet is buffered.
type RED struct {
	cfg REDConfig
	occ *pisa.SharedRegister
	avg *sketch.EWMA
	rng *sim.RNG

	Dropped, Passed uint64
	// MarkedAvgPeak tracks the highest smoothed occupancy observed.
	MarkedAvgPeak uint64
}

// NewRED builds the AQM and its program.
func NewRED(cfg REDConfig, rng *sim.RNG) (*RED, *pisa.Program) {
	if cfg.MinThresh <= 0 {
		cfg.MinThresh = 15000
	}
	if cfg.MaxThresh <= cfg.MinThresh {
		cfg.MaxThresh = 3 * cfg.MinThresh
	}
	if cfg.MaxP256 == 0 {
		cfg.MaxP256 = 64 // 25% at MaxThresh
	}
	r := &RED{cfg: cfg, avg: sketch.NewEWMA(redEWMAShift), rng: rng}
	p := pisa.NewProgram("red")
	r.occ = p.AddRegister(pisa.NewAggregatedRegister("redOcc", 1,
		events.BufferEnqueue, events.BufferDequeue))

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if !ctx.FlowOK {
			return
		}
		avg := int64(r.avg.Value())
		switch {
		case avg <= cfg.MinThresh:
			r.Passed++
		case avg >= cfg.MaxThresh:
			r.Dropped++
			ctx.Drop()
		default:
			// Linear ramp: p = MaxP * (avg-min)/(max-min), in /256.
			p256 := cfg.MaxP256 * uint64(avg-cfg.MinThresh) /
				uint64(cfg.MaxThresh-cfg.MinThresh)
			if uint64(r.rng.Intn(256)) < p256 {
				r.Dropped++
				ctx.Drop()
				return
			}
			r.Passed++
		}
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		r.occ.Add(ctx, 0, int64(ctx.Ev.PktLen))
		// Smooth on the stale visible value: the data-plane-faithful
		// signal path.
		v := r.avg.Observe(r.occ.Read(ctx, 0))
		if v > r.MarkedAvgPeak {
			r.MarkedAvgPeak = v
		}
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		r.occ.Add(ctx, 0, -int64(ctx.Ev.PktLen))
		r.avg.Observe(r.occ.Read(ctx, 0))
	})
	return r, p
}
