package apps

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// PolicerConfig parameterizes the timer-built token-bucket policer
// (paper §3, Traffic Management: "if we use timer events, token bucket
// meters can be constructed from simple registers" — instead of relying
// on a fixed-function meter extern).
type PolicerConfig struct {
	Slots      int      // independent buckets (per flow slot)
	Rate       sim.Rate // token fill rate per bucket
	BurstBytes int      // bucket depth
	RefillEach sim.Time // timer period
	EgressPort int
}

// Policer enforces per-flow rates with registers refilled by a timer
// event: each timer expiration adds rate*period tokens (clamped to the
// burst), and each packet spends tokens or is dropped.
type Policer struct {
	cfg    PolicerConfig
	tokens *pisa.SharedRegister

	Passed  uint64
	Dropped uint64
	refill  int64
}

// NewPolicer builds the policer and its program.
func NewPolicer(cfg PolicerConfig) (*Policer, *pisa.Program) {
	if cfg.Slots <= 0 {
		cfg.Slots = 256
	}
	if cfg.BurstBytes <= 0 {
		cfg.BurstBytes = 3000
	}
	if cfg.RefillEach <= 0 {
		cfg.RefillEach = 100 * sim.Microsecond
	}
	pl := &Policer{cfg: cfg}
	pl.refill = int64(cfg.Rate) / 8 * int64(cfg.RefillEach) / int64(sim.Second)
	if pl.refill <= 0 {
		pl.refill = 1
	}
	p := pisa.NewProgram("policer-timer")
	// Packet threads own the main token register; timer refills go
	// through an aggregation bank (Figure 3) so a refill coinciding
	// with a packet slot is deferred to an idle cycle instead of lost.
	pl.tokens = p.AddRegister(pisa.NewAggregatedRegister("tokens", cfg.Slots,
		events.TimerExpiration))
	// Pre-fill buckets (control-plane initialization).
	for i := 0; i < cfg.Slots; i++ {
		pl.tokens.Write(freshCtx(events.ControlPlaneTriggered, 0), uint32(i), uint64(cfg.BurstBytes))
	}

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		if !ctx.FlowOK {
			ctx.EgressPort = cfg.EgressPort
			return
		}
		slot := uint32(ctx.Ev.FlowHash % uint64(cfg.Slots))
		have := pl.tokens.Read(ctx, slot)
		need := uint64(ctx.Pkt.Len())
		if have < need {
			pl.Dropped++
			ctx.Drop()
			return
		}
		pl.tokens.Add(ctx, slot, -int64(need))
		pl.Passed++
		ctx.EgressPort = cfg.EgressPort
	})
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		burst := int64(cfg.BurstBytes)
		for i := 0; i < cfg.Slots; i++ {
			slot := uint32(i)
			// The stale read bounds the clamp; any overshoot is at most
			// the undrained refill backlog, which idle cycles clear.
			have := int64(pl.tokens.Read(ctx, slot))
			add := pl.refill
			if have+add > burst {
				add = burst - have
			}
			if add > 0 {
				pl.tokens.Add(ctx, slot, add)
			}
		}
	})
	return pl, p
}

// freshCtx builds a one-shot context for out-of-band register access
// during setup.
func freshCtx(kind events.Kind, cycle uint64) *pisa.Context {
	ctx := &pisa.Context{}
	ctx.Reset(nil, &events.Event{Kind: kind}, 0, cycle)
	return ctx
}

// Arm configures the refill timer.
func (pl *Policer) Arm(sw *core.Switch) error {
	return sw.ConfigureTimer(0, pl.cfg.RefillEach)
}

// FREDConfig parameterizes the FRED-like fair AQM (paper §5, "Computing
// Congestion Signals": enqueue/dequeue events compute total occupancy,
// per-active-flow occupancy, and active flow count; the policy enforces
// flow-level fairness).
type FREDConfig struct {
	Slots int
	// MinQBytes is the minimum per-flow share below which packets are
	// never dropped.
	MinQBytes int
	// TotalLimit is the buffer occupancy beyond which over-share flows
	// are dropped probabilistically (here: deterministically, the
	// data-plane-friendly variant).
	TotalLimit int
	EgressPort int
	ReportPort int // where buffer-occupancy reports go (-1: none)
}

// FRED enforces approximate flow-level fairness using congestion signals
// derived from enqueue/dequeue events: total buffered bytes, per-flow
// buffered bytes, and the active flow count.
type FRED struct {
	cfg FREDConfig
	// Three separate registers, one per congestion signal: a Figure 3
	// aggregation bank accepts at most one read-modify-write per event
	// per cycle, so each signal needs its own physical register (two
	// updates to one register from the same enqueue event would lose
	// one).
	perFlow    *pisa.SharedRegister
	totalBytes *pisa.SharedRegister // single entry
	actFlows   *pisa.SharedRegister // single entry

	Dropped uint64
	Passed  uint64
	// Samples records (time, total occupancy) pairs from timer reports.
	Samples []Sample
}

// Sample is a timestamped occupancy observation.
type Sample struct {
	At    sim.Time
	Value uint64
}

// NewFRED builds the AQM and its program.
func NewFRED(cfg FREDConfig) (*FRED, *pisa.Program) {
	if cfg.Slots <= 0 {
		cfg.Slots = 1024
	}
	if cfg.MinQBytes <= 0 {
		cfg.MinQBytes = 3000
	}
	if cfg.TotalLimit <= 0 {
		cfg.TotalLimit = 60000
	}
	f := &FRED{cfg: cfg}
	p := pisa.NewProgram("fred")
	f.perFlow = p.AddRegister(pisa.NewAggregatedRegister("flowOcc", cfg.Slots,
		events.BufferEnqueue, events.BufferDequeue))
	f.totalBytes = p.AddRegister(pisa.NewAggregatedRegister("totalBytes", 1,
		events.BufferEnqueue, events.BufferDequeue))
	f.actFlows = p.AddRegister(pisa.NewAggregatedRegister("activeFlows", 1,
		events.BufferEnqueue, events.BufferDequeue))

	slotOf := func(h uint64) uint32 { return uint32(h % uint64(cfg.Slots)) }

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
		if !ctx.FlowOK {
			return
		}
		slot := slotOf(ctx.Ev.FlowHash)
		mine := f.perFlow.Read(ctx, slot)
		total := f.totalBytes.Read(ctx, 0)
		flows := f.actFlows.Read(ctx, 0)
		if flows == 0 {
			flows = 1
		}
		fairShare := total / flows
		if mine > uint64(cfg.MinQBytes) && total > uint64(cfg.TotalLimit) && mine > fairShare {
			f.Dropped++
			ctx.Drop()
			return
		}
		f.Passed++
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		slot := slotOf(ctx.Ev.FlowHash)
		// First buffered byte of this flow: it becomes active. The read
		// sees the stale pre-update value, so the count is approximate
		// under heavy churn — the staleness the paper discusses.
		if f.perFlow.Read(ctx, slot) == 0 {
			f.actFlows.Add(ctx, 0, +1)
		}
		f.perFlow.Add(ctx, slot, int64(ctx.Ev.PktLen))
		f.totalBytes.Add(ctx, 0, int64(ctx.Ev.PktLen))
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		slot := slotOf(ctx.Ev.FlowHash)
		f.perFlow.Add(ctx, slot, -int64(ctx.Ev.PktLen))
		f.totalBytes.Add(ctx, 0, -int64(ctx.Ev.PktLen))
		// Last byte out: flow becomes inactive. The read sees the stale
		// pre-update value, so compare against the packet length.
		if f.perFlow.Read(ctx, slot) <= uint64(ctx.Ev.PktLen) {
			f.actFlows.Add(ctx, 0, -1)
		}
	})
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		v := f.totalBytes.Read(ctx, 0)
		f.Samples = append(f.Samples, Sample{At: ctx.Now, Value: v})
		if cfg.ReportPort >= 0 {
			// A real deployment emits a Report frame; the experiment
			// reads Samples directly.
			_ = v
		}
	})
	return f, p
}

// Arm configures the sampling timer.
func (f *FRED) Arm(sw *core.Switch, period sim.Time) error {
	return sw.ConfigureTimer(0, period)
}

// ActiveFlows reports the current active-flow estimate.
func (f *FRED) ActiveFlows() int64 { return f.actFlows.True(0) }

// TotalOccupancy reports the tracked total buffered bytes.
func (f *FRED) TotalOccupancy() int64 { return f.totalBytes.True(0) }
