package apps

import (
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// TelemetryConfig parameterizes the INT-style report reducer (paper §3
// Network Monitoring: "data planes can use timer events to aggregate
// congestion information (e.g. queue size, packet loss, or active flow
// count) and only report anomalous events to the monitoring system
// periodically").
type TelemetryConfig struct {
	SwitchID uint32
	// EgressPort forwards data traffic; ReportPort carries reports.
	EgressPort, ReportPort int
}

// The reducer's thresholds: the per-interval byte counts are smoothed by
// 1/2^telemetryEWMAShift, and an interval is anomalous when it drops a
// packet, or moves more than telemetryFloorBytes and more than
// telemetryDeviation times the smoothed baseline.
const (
	telemetryEWMAShift  = 3
	telemetryDeviation  = 2
	telemetryFloorBytes = 4096
)

// Telemetry aggregates per-interval congestion information from buffer
// events and emits a Report only when the interval is anomalous —
// reducing the report volume that would otherwise overwhelm a software
// monitor.
type Telemetry struct {
	cfg TelemetryConfig

	intervalBytes uint64
	intervalDrops uint64
	occPeak       int64
	occ           int64
	baseline      *sketch.EWMA
	seq           uint32

	// Intervals counts timer ticks; Reports counts anomalies reported;
	// Suppressed counts quiet intervals not reported.
	Intervals  uint64
	Reports    uint64
	Suppressed uint64
}

// NewTelemetry builds the reducer and its program.
func NewTelemetry(cfg TelemetryConfig) (*Telemetry, *pisa.Program) {
	tl := &Telemetry{cfg: cfg, baseline: sketch.NewEWMA(telemetryEWMAShift)}
	p := pisa.NewProgram("telemetry-filter")

	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = cfg.EgressPort
	})
	p.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		tl.intervalBytes += uint64(ctx.Ev.PktLen)
		tl.occ += int64(ctx.Ev.PktLen)
		if tl.occ > tl.occPeak {
			tl.occPeak = tl.occ
		}
	})
	p.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		tl.occ -= int64(ctx.Ev.PktLen)
	})
	p.HandleFunc(events.BufferOverflow, func(ctx *pisa.Context) {
		tl.intervalDrops++
	})
	p.HandleFunc(events.TimerExpiration, func(ctx *pisa.Context) {
		tl.Intervals++
		bytes := tl.intervalBytes
		drops := tl.intervalDrops
		peak := uint64(tl.occPeak)
		tl.intervalBytes, tl.intervalDrops, tl.occPeak = 0, 0, tl.occ

		base := tl.baseline.Value()
		anomalous := drops > 0 ||
			(bytes > telemetryFloorBytes && base > 0 && bytes > base*telemetryDeviation)
		// Update the baseline after the comparison so a spike does not
		// mask itself.
		tl.baseline.Observe(bytes)
		if !anomalous {
			tl.Suppressed++
			return
		}
		tl.Reports++
		rep := &packet.Report{
			Kind:   packet.ReportAnomaly,
			Switch: tl.cfg.SwitchID,
			Seq:    tl.seq,
			V0:     bytes,
			V1:     uint32(peak),
			V2:     uint16(drops),
		}
		tl.seq++
		ctx.Emit(packet.BuildControlFrame(packet.Broadcast,
			packet.MACFromUint64(uint64(tl.cfg.SwitchID)), rep), tl.cfg.ReportPort)
	})
	return tl, p
}

// Arm configures the aggregation timer.
func (tl *Telemetry) Arm(sw *core.Switch, interval sim.Time) error {
	return sw.ConfigureTimer(0, interval)
}

// ReductionRatio reports intervals per emitted report (the filter's
// compression of the monitoring stream).
func (tl *Telemetry) ReductionRatio() float64 {
	if tl.Reports == 0 {
		return float64(tl.Intervals)
	}
	return float64(tl.Intervals) / float64(tl.Reports)
}
