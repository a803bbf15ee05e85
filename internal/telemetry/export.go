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

// chromeEvent is one Chrome/Perfetto trace-event object. Instant events
// ("ph":"i") carry the lifecycle stamp; metadata events ("ph":"M") name
// the per-run processes and per-stream threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of simulated time
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args map[string]any `json:"args,omitempty"`
}

// recArgs renders one record's stage-specific fields. Keys are fixed per
// stage so encoding/json's sorted-key output is stable.
func recArgs(r flatRec) map[string]any {
	a := map[string]any{}
	switch r.Stg {
	case StageGen:
		a["kind"] = kindName(r.Kind)
		a["seq"] = r.Seq
		a["port"] = int64(r.Arg)
	case StageEnqueue:
		a["kind"] = kindName(r.Kind)
		a["seq"] = r.Seq
		a["outcome"] = r.Out.String()
	case StageMerge:
		a["kind"] = kindName(r.Kind)
		a["seq"] = r.Seq
		a["cycle"] = r.Arg
		a["outcome"] = r.Out.String()
	case StageSlot:
		a["kind"] = kindName(r.Kind)
		a["cycle"] = r.Seq
		a["outcome"] = r.Out.String()
	case StageCommit:
		a["index"] = r.Seq
		a["lag_cycles"] = r.Arg
	}
	return a
}

// kindName names a record's kind field, including the register marker.
func kindName(k uint8) string {
	if k == KindRegister {
		return "register"
	}
	return eventKindName(k)
}

// recName is the instant event's display name, e.g. "enqueue:dropped".
func recName(r flatRec) string {
	if s := r.Out.String(); s != "" {
		return r.Stg.String() + ":" + s
	}
	return r.Stg.String()
}

// EncodeChromeTrace renders every retained trace record across the
// labelled collectors as a Chrome trace-event JSON array (the format
// ui.perfetto.dev and chrome://tracing open directly). Each run is a
// process (pid = its index in label order) and each stream a thread
// (tid = stream creation index); timestamps are simulated microseconds.
func EncodeChromeTrace(runs []RunExport) ([]byte, error) {
	evs := []chromeEvent{}
	for pid, r := range sortRuns(runs) {
		t := r.C.Tracer()
		if t == nil {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": r.Label},
		})
		for _, s := range t.Streams() {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: int(s.id),
				Args: map[string]any{"name": s.name},
			})
		}
		for _, rec := range t.merged() {
			evs = append(evs, chromeEvent{
				Name: recName(rec), Ph: "i", S: "t",
				Ts:  float64(rec.At) / 1e6, // ps -> µs
				Pid: pid, Tid: int(rec.stream),
				Args: recArgs(rec),
			})
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(evs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteChromeTrace writes the Chrome trace-event JSON to path.
func WriteChromeTrace(path string, runs []RunExport) error {
	b, err := EncodeChromeTrace(runs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
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

// EncodeJSONL renders the trace as one JSON object per line — friendlier
// to grep/jq pipelines than the Chrome array. Fields: run, stream, ts_ps,
// stage, kind, outcome, seq, arg.
func EncodeJSONL(runs []RunExport) ([]byte, error) {
	var buf bytes.Buffer
	for _, r := range sortRuns(runs) {
		t := r.C.Tracer()
		if t == nil {
			continue
		}
		streams := t.Streams()
		for _, rec := range t.merged() {
			b, err := jsonlLine(r.Label, streams[rec.stream].name, rec.Rec)
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
