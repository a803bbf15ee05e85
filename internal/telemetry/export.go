package telemetry

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
)

// RunExport is one labelled collector in a multi-run export (one per
// experiment trial). Exporters sort runs by label, so output is
// independent of the order trials finished in.
type RunExport struct {
	Label string
	C     *Collector
}

// sortRuns returns runs ordered by label without mutating the input.
func sortRuns(runs []RunExport) []RunExport {
	out := append([]RunExport(nil), runs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// metricsDoc is the on-disk metrics schema ("evbench-metrics/v1").
type metricsDoc struct {
	Schema string       `json:"schema"`
	Runs   []metricsRun `json:"runs"`
}

type metricsRun struct {
	Label        string   `json:"label"`
	Metrics      []Metric `json:"metrics"`
	TraceRecords uint64   `json:"trace_records"`
	TraceDropped uint64   `json:"trace_dropped"`
}

// MetricsSchema names the metrics document schema version.
const MetricsSchema = "evbench-metrics/v1"

// add appends one labelled collector's current state to the document:
// the one builder behind the post-run export and every streamed line.
func (doc *metricsDoc) add(label string, c *Collector) {
	mr := metricsRun{Label: label, Metrics: c.Registry().Snapshot()}
	if t := c.Tracer(); t != nil {
		mr.TraceRecords = t.Emitted()
		mr.TraceDropped = t.Dropped()
	}
	doc.Runs = append(doc.Runs, mr)
}

// EncodeMetrics renders the labelled collectors' registries as an
// indented "evbench-metrics/v1" JSON document. Output is a pure function
// of each collector's deterministic state and its label.
func EncodeMetrics(runs []RunExport) ([]byte, error) {
	doc := metricsDoc{Schema: MetricsSchema, Runs: []metricsRun{}}
	for _, r := range sortRuns(runs) {
		doc.add(r.Label, r.C)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteMetrics writes the metrics document to path.
func WriteMetrics(path string, runs []RunExport) error {
	b, err := EncodeMetrics(runs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// kindName names a record's kind field, including the register marker.
func kindName(k uint8) string {
	if k == KindRegister {
		return "register"
	}
	return eventKindName(k)
}

// jsonlRec is one line of a JSONL trace, post-run (EncodeJSONL) or
// streamed (StreamSink), so the two are line-compatible.
type jsonlRec struct {
	Run     string `json:"run"`
	Stream  string `json:"stream"`
	TsPs    int64  `json:"ts_ps"`
	Stage   string `json:"stage"`
	Kind    string `json:"kind"`
	Outcome string `json:"outcome,omitempty"`
	Seq     uint64 `json:"seq"`
	Arg     uint64 `json:"arg"`
}

// jsonlLine renders one record of the named run and stream.
func jsonlLine(run, stream string, rec Rec) ([]byte, error) {
	return json.Marshal(jsonlRec{
		Run: run, Stream: stream,
		TsPs: int64(rec.At), Stage: rec.Stg.String(),
		Kind: kindName(rec.Kind), Outcome: rec.Out.String(),
		Seq: rec.Seq, Arg: rec.Arg,
	})
}

// EncodeJSONL renders the trace as one JSON object per line, the only
// trace format written to disk (cmd/tracecheck converts it for Perfetto
// offline). Fields: run, stream, ts_ps, stage, kind, outcome, seq, arg.
func EncodeJSONL(runs []RunExport) ([]byte, error) {
	var buf bytes.Buffer
	for _, r := range sortRuns(runs) {
		t := r.C.Tracer()
		if t == nil {
			continue
		}
		for _, rec := range t.merged() {
			b, err := jsonlLine(r.Label, t.streams[rec.stream].name, rec.Rec)
			if err != nil {
				return nil, err
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

// WriteJSONL writes the JSONL trace to path.
func WriteJSONL(path string, runs []RunExport) error {
	b, err := EncodeJSONL(runs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Digest returns an FNV-1a hash over the full metrics + trace export of
// the labelled collectors — a compact determinism witness two runs can
// compare without diffing files.
func Digest(runs []RunExport) (uint64, error) {
	h := fnv.New64a()
	m, err := EncodeMetrics(runs)
	if err != nil {
		return 0, err
	}
	h.Write(m)
	j, err := EncodeJSONL(runs)
	if err != nil {
		return 0, err
	}
	h.Write(j)
	return h.Sum64(), nil
}
