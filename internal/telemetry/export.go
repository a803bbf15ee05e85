package telemetry

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
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

// jsonlPrefix is the text every JSONL line of the named run and stream
// starts with, up to the ts_ps value. The run label is free text, so
// json.Marshal quotes both names, once per stream rather than per record.
func jsonlPrefix(run, stream string) []byte {
	r, _ := json.Marshal(run) // a string always marshals
	st, _ := json.Marshal(stream)
	b := append([]byte(`{"run":`), r...)
	b = append(b, `,"stream":`...)
	b = append(b, st...)
	return append(b, `,"ts_ps":`...)
}

// appendJSONL appends one record as a JSONL line, newline included, to b
// and returns the extended buffer; prefix is jsonlPrefix's for the
// record's run and stream. Post-run (EncodeJSONL) and streamed
// (StreamSink) traces share it, so the two are line-compatible. The
// stage, kind and outcome names come from fixed vocabularies of plain
// identifiers that need no escaping; TestAppendJSONLMatchesMarshal holds
// every line to what json.Marshal writes.
func appendJSONL(b, prefix []byte, rec Rec) []byte {
	b = append(b, prefix...)
	b = strconv.AppendInt(b, int64(rec.At), 10)
	b = append(b, `,"stage":"`...)
	b = append(b, rec.Stg.String()...)
	b = append(b, `","kind":"`...)
	b = append(b, kindName(rec.Kind)...)
	b = append(b, '"')
	if out := rec.Out.String(); out != "" {
		b = append(b, `,"outcome":"`...)
		b = append(b, out...)
		b = append(b, '"')
	}
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	b = append(b, `,"arg":`...)
	b = strconv.AppendUint(b, rec.Arg, 10)
	return append(b, "}\n"...)
}

// EncodeJSONL renders the trace as one JSON object per line, the only
// trace format written to disk (cmd/tracecheck converts it for Perfetto
// offline). Fields: run, stream, ts_ps, stage, kind, outcome (omitted
// when empty), seq, arg.
func EncodeJSONL(runs []RunExport) []byte {
	var b []byte
	for _, r := range sortRuns(runs) {
		t := r.C.Tracer()
		if t == nil {
			continue
		}
		prefixes := make([][]byte, len(t.streams))
		for _, rec := range t.merged() {
			p := prefixes[rec.stream]
			if p == nil {
				p = jsonlPrefix(r.Label, t.streams[rec.stream].name)
				prefixes[rec.stream] = p
			}
			b = appendJSONL(b, p, rec.Rec)
		}
	}
	return b
}

// WriteJSONL writes the JSONL trace to path.
func WriteJSONL(path string, runs []RunExport) error {
	return os.WriteFile(path, EncodeJSONL(runs), 0o644)
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
	h.Write(EncodeJSONL(runs))
	return h.Sum64(), nil
}
