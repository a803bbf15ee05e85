package apps

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/pisa"
	"repro/internal/sim"
)

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
