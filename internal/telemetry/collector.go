package telemetry

import "repro/internal/sim"

// Options configures a Collector.
type Options struct {
	// TraceCap is the per-stream trace ring capacity in records; 0
	// disables lifecycle tracing entirely (metrics stay on).
	TraceCap int
	// SamplePeriod is the occupancy-sampling period instrumented
	// components use for their periodic gauges (simulated time). 0
	// disables periodic sampling.
	SamplePeriod sim.Time
}

// DefaultTraceCap is the per-stream ring capacity CLIs use when tracing
// is requested without an explicit capacity.
const DefaultTraceCap = 1 << 14

// DefaultSamplePeriod is the occupancy sampling period CLIs use.
const DefaultSamplePeriod = 50 * sim.Microsecond

// Collector bundles one run's registry and tracer. Build one collector
// per independent simulation (per experiment trial); exporters merge
// collectors deterministically by caller-supplied labels.
type Collector struct {
	opts   Options
	reg    *Registry
	tracer *Tracer // nil when tracing is disabled
}

// New builds a collector.
func New(opts Options) *Collector {
	c := &Collector{opts: opts, reg: NewRegistry()}
	if opts.TraceCap > 0 {
		c.tracer = NewTracer(opts.TraceCap)
	}
	return c
}

// Options returns the collector's configuration.
func (c *Collector) Options() Options { return c.opts }

// Registry returns the metrics registry.
func (c *Collector) Registry() *Registry { return c.reg }

// Tracer returns the lifecycle tracer, or nil when tracing is disabled.
func (c *Collector) Tracer() *Tracer { return c.tracer }

// Stream creates (or returns) a named trace stream, or nil when tracing
// is disabled. Instrumented components keep the nil and skip their Emit
// calls.
func (c *Collector) Stream(name string) *Stream {
	if c.tracer == nil {
		return nil
	}
	return c.tracer.Stream(name)
}
