package bench

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// Experiment telemetry: evbench turns collection on with EnableTelemetry,
// instrumented experiments draw one collector per trial via
// trialCollector, and the harness exports every labelled collector after
// the experiment returns. Trials may finish in any order under
// RunParallel — the export layer sorts by label, so trace and metrics
// files are byte-identical at every -parallel and -domains setting.
var telState struct {
	mu   sync.Mutex
	on   bool
	opts telemetry.Options
	runs []telemetry.RunExport
	sink *telemetry.StreamSink
}

// EnableTelemetry arms per-trial collection for instrumented experiments
// and discards any previously collected runs.
func EnableTelemetry(opts telemetry.Options) {
	telState.mu.Lock()
	defer telState.mu.Unlock()
	telState.on = true
	telState.opts = opts
	telState.runs = nil
}

// DisableTelemetry turns collection off and discards collected runs.
func DisableTelemetry() {
	telState.mu.Lock()
	defer telState.mu.Unlock()
	telState.on = false
	telState.runs = nil
}

// TelemetryEnabled reports whether experiments should instrument.
func TelemetryEnabled() bool {
	telState.mu.Lock()
	defer telState.mu.Unlock()
	return telState.on
}

// AttachStreamSink registers a streaming sink: every collector created by
// trialCollector from now on is attached to it, so traces and metric
// snapshots land on disk while trials run. The caller must have enabled
// telemetry with Options.Live (the sink's collectors are read from a
// wall-clock goroutine). Pass nil to detach.
func AttachStreamSink(sk *telemetry.StreamSink) {
	telState.mu.Lock()
	defer telState.mu.Unlock()
	if sk != nil && !telState.opts.Live {
		panic("bench: AttachStreamSink needs EnableTelemetry with Options.Live")
	}
	telState.sink = sk
}

// trialCollector returns a fresh collector registered under label, or nil
// when telemetry is off. Labels must be derived from the trial index
// ("<exp>/t00"), never from completion order; RunParallel workers may
// call this concurrently.
func trialCollector(label string) *telemetry.Collector {
	telState.mu.Lock()
	defer telState.mu.Unlock()
	if !telState.on {
		return nil
	}
	c := telemetry.New(telState.opts)
	telState.runs = append(telState.runs, telemetry.RunExport{Label: label, C: c})
	if telState.sink != nil {
		telState.sink.Attach(label, c)
	}
	return c
}

// TelemetryRuns returns the collected runs sorted by label.
func TelemetryRuns() []telemetry.RunExport {
	telState.mu.Lock()
	runs := append([]telemetry.RunExport(nil), telState.runs...)
	telState.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

// WriteTelemetryTrace writes the collected trace to path: JSONL when the
// path ends in ".jsonl", Chrome/Perfetto trace-event JSON otherwise.
func WriteTelemetryTrace(path string) error {
	runs := TelemetryRuns()
	if strings.HasSuffix(path, ".jsonl") {
		return telemetry.WriteJSONL(path, runs)
	}
	return telemetry.WriteChromeTrace(path, runs)
}

// WriteTelemetryMetrics writes the collected metrics document to path.
func WriteTelemetryMetrics(path string) error {
	return telemetry.WriteMetrics(path, TelemetryRuns())
}
