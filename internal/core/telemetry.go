package core

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/telemetry"
)

// telName returns the switch's name for telemetry instruments.
func (s *Switch) telName() string {
	if s.cfg.Name != "" {
		return s.cfg.Name
	}
	return "switch"
}

// EnableTelemetry attaches the switch to a collector: it creates the
// switch's probe (per-cycle/slot/merger counters plus the "sw.<name>"
// trace stream), instruments each loaded shared register's drain path,
// and — when the collector's SamplePeriod is set — arms a sim-time
// sampler for TM port occupancy and event-FIFO depth gauges. All
// instruments are created here, during single-threaded setup; the run
// itself only performs field increments through s.tel.
//
// Call once per switch before running. A program loaded after this call
// is instrumented by Load.
func (s *Switch) EnableTelemetry(c *telemetry.Collector) {
	if s.telSampler != nil {
		s.telSampler.Stop()
		s.telSampler = nil
	}
	s.telCol = c
	if c == nil {
		s.tel = nil
		return
	}
	s.tel = c.NewSwitchProbe(s.telName())
	s.instrumentRegisters()

	period := c.Options().SamplePeriod
	if period <= 0 {
		return
	}
	// Pre-resolve every gauge so the sampler never touches the registry.
	pre := "sw." + s.telName() + "."
	reg := c.Registry()
	portBytes := make([]*telemetry.Gauge, s.cfg.Ports)
	for p := range portBytes {
		portBytes[p] = reg.Gauge(fmt.Sprintf("%stm.port%d.bytes", pre, p))
	}
	var evqLen [events.NumKinds]*telemetry.Gauge
	for k := 0; k < events.NumKinds; k++ {
		evqLen[k] = reg.Gauge(pre + "evq." + events.Kind(k).String() + ".len")
	}
	// The sampler runs on the switch's own scheduler at a fixed simulated
	// period, so its firing instants — and therefore the gauges' final
	// values — are identical at any domain count.
	s.telSampler = s.sched.Every(period, func() {
		for p, g := range portBytes {
			g.Set(int64(s.tmgr.PortBytes(p)))
		}
		for k := 0; k < events.NumKinds; k++ {
			evqLen[k].Set(int64(s.evq[k].Len()))
		}
	})
}

// instrumentRegisters hooks each shared register's drain path to a
// RegisterProbe (staleness histogram + commit stream). Called from
// EnableTelemetry and again from Load, whichever happens last.
func (s *Switch) instrumentRegisters() {
	if s.telCol == nil || s.prog == nil {
		return
	}
	for _, r := range s.prog.Registers() {
		rp := s.telCol.NewRegisterProbe(s.telName(), r.Name())
		r.SetDrainHook(func(idx uint32, lag uint64) {
			rp.ObserveDrain(s.sched.Now(), idx, lag)
		})
	}
}
