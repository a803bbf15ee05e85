package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/telemetry/self"
)

// StreamSink incrementally flushes trace records and metric snapshots to
// disk while the run executes, so long runs leave observable output
// before they finish. Each Flush drains the attached collectors' trace
// rings, writing:
//
//   - trace records as JSONL lines, the same jsonlRec EncodeJSONL writes
//     (run/stream/ts_ps/stage/kind/outcome/seq/arg);
//   - one compact "evbench-metrics/v1" document per flush as a JSONL
//     line in the metrics file.
//
// Both outputs are append-only, one complete line per record, so a crash
// mid-flush leaves at most one torn final record and every line before it
// parses; cmd/tracecheck's truncated-file mode accepts such a file and
// reports the tear.
//
// The sink has no goroutine and no lock: the host calls Flush from the
// goroutine that runs the simulation, between two scheduler runs, so a
// flush never overlaps a write to the instruments it reads. Draining
// never disturbs the rings, so the run's post-run exports are
// byte-identical with a sink attached or not.
type StreamSink struct {
	entries []sinkEntry // sorted by label

	traceW   *bufio.Writer
	traceF   *os.File
	metricsW *bufio.Writer
	metricsF *os.File

	self *self.Plane // StreamOptions.Self
	buf  []Rec
	err  error
}

type sinkEntry struct {
	label string
	c     *Collector
}

// StreamOptions configures a StreamSink.
type StreamOptions struct {
	// TracePath receives trace records as JSONL; empty disables trace
	// streaming.
	TracePath string
	// MetricsPath receives one metrics-document line per flush; empty
	// disables metric streaming.
	MetricsPath string
	// Self, when set, counts flushes and flushed/lost records in the
	// run's self-metrics plane.
	Self *self.Plane
}

// NewStreamSink opens the output files. At least one path must be set.
func NewStreamSink(opts StreamOptions) (*StreamSink, error) {
	if opts.TracePath == "" && opts.MetricsPath == "" {
		return nil, fmt.Errorf("telemetry: stream sink needs a trace or metrics path")
	}
	sk := &StreamSink{self: opts.Self}
	if opts.TracePath != "" {
		f, err := os.Create(opts.TracePath)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		sk.traceF = f
		sk.traceW = bufio.NewWriter(f)
	}
	if opts.MetricsPath != "" {
		f, err := os.Create(opts.MetricsPath)
		if err != nil {
			if sk.traceF != nil {
				sk.traceF.Close()
			}
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		sk.metricsF = f
		sk.metricsW = bufio.NewWriter(f)
	}
	return sk, nil
}

// Attach registers a labelled collector with the sink. Flushes visit
// collectors in label order, then each collector's streams in creation
// order.
func (sk *StreamSink) Attach(label string, c *Collector) {
	sk.entries = append(sk.entries, sinkEntry{label, c})
	sort.SliceStable(sk.entries, func(i, j int) bool { return sk.entries[i].label < sk.entries[j].label })
}

// Flush drains every attached collector's streams and writes one metrics
// snapshot line. Call it where no instrument is being written: from the
// simulating goroutine between scheduler runs, or after the run.
func (sk *StreamSink) Flush() error {
	if sk.err != nil {
		return sk.err
	}
	var wrote uint64
	for _, e := range sk.entries {
		t := e.c.Tracer()
		if t == nil || sk.traceW == nil {
			continue
		}
		for _, s := range t.streams {
			var lost uint64
			sk.buf, lost = s.DrainNew(sk.buf[:0])
			if lost > 0 && sk.self != nil {
				sk.self.StreamLost.Add(lost)
			}
			for _, rec := range sk.buf {
				if err := sk.writeRec(e.label, s, rec); err != nil {
					sk.err = err
					return err
				}
				wrote++
			}
		}
	}
	if sk.metricsW != nil {
		if err := sk.writeMetricsLine(); err != nil {
			sk.err = err
			return err
		}
	}
	for _, w := range []*bufio.Writer{sk.traceW, sk.metricsW} {
		if w == nil {
			continue
		}
		if err := w.Flush(); err != nil {
			sk.err = err
			return err
		}
	}
	if sk.self != nil {
		sk.self.StreamFlushes.Inc()
		sk.self.StreamRecords.Add(wrote)
	}
	return nil
}

func (sk *StreamSink) writeRec(label string, s *Stream, rec Rec) error {
	b, err := jsonlLine(label, s.Name(), rec)
	if err != nil {
		return err
	}
	sk.traceW.Write(b)
	return sk.traceW.WriteByte('\n')
}

// writeMetricsLine appends one compact metrics document line covering
// every attached collector's current snapshot.
func (sk *StreamSink) writeMetricsLine() error {
	doc := metricsDoc{Schema: MetricsSchema, Runs: []metricsRun{}}
	for _, e := range sk.entries {
		doc.add(e.label, e.c)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	sk.metricsW.Write(b)
	return sk.metricsW.WriteByte('\n')
}

// Close performs a final flush and closes the files. Call it after the
// run and before the post-run exports, so every emitted record lands in
// the streamed files.
func (sk *StreamSink) Close() error {
	sk.Flush()
	for _, f := range []*os.File{sk.traceF, sk.metricsF} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && sk.err == nil {
			sk.err = err
		}
	}
	return sk.err
}
