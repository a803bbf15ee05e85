package bench

import (
	"sort"

	"repro/internal/telemetry"
)

// collector returns a fresh collector registered under label, or nil
// when the campaign collects no telemetry. Labels must be derived from
// the trial index ("<exp>/t00"), never from completion order: trials may
// finish in any order under RunParallel (whose workers call this
// concurrently) and the export sorts by label, so trace and metrics
// files are byte-identical at every Parallelism and Domains setting.
func (e *Env) collector(label string) *telemetry.Collector {
	if e.Telemetry == nil {
		return nil
	}
	opts := *e.Telemetry
	opts.Live = e.Self != nil || e.Sink != nil
	c := telemetry.New(opts)
	e.mu.Lock()
	e.runs = append(e.runs, telemetry.RunExport{Label: label, C: c})
	e.mu.Unlock()
	if e.Sink != nil {
		e.Sink.Attach(label, c)
	}
	return c
}

// TelemetryRuns returns the collected runs sorted by label.
func (e *Env) TelemetryRuns() []telemetry.RunExport {
	e.mu.Lock()
	runs := append([]telemetry.RunExport(nil), e.runs...)
	e.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

// WriteTrace writes the collected trace to path as JSONL.
func (e *Env) WriteTrace(path string) error {
	return telemetry.WriteJSONL(path, e.TelemetryRuns())
}

// WriteMetrics writes the collected metrics document to path.
func (e *Env) WriteMetrics(path string) error {
	return telemetry.WriteMetrics(path, e.TelemetryRuns())
}
