package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/telemetry/self"
)

// StreamSink writes a run's telemetry to disk while the run executes, so
// long runs leave observable output before they finish:
//
//   - every trace record as a JSONL line, the same line EncodeJSONL
//     writes (run/stream/ts_ps/stage/kind/outcome/seq/arg);
//   - one compact "evbench-metrics/v1" document per Flush as a JSONL
//     line in the metrics file.
//
// Trace records reach the sink by spilling: a full ring hands its
// unwritten records over before it overwrites one (Stream.Emit), and
// Close writes what is left. The trace file is therefore the whole trace,
// per stream in emission order, and depends only on the run — not on
// when or how often Flush is called.
//
// Both outputs are append-only, one complete line per record, so a crash
// leaves at most one torn final record and every line before it parses;
// cmd/tracecheck's truncated-file mode accepts such a file and reports
// the tear.
//
// The sink has no goroutine and no lock. A spill writes the sink inside
// Emit, so an attached collector must be written only by the goroutine
// that calls Flush and Close, and Flush must be called between two
// scheduler runs so that the snapshot it takes races no writer. Spilling
// never disturbs the rings, so the run's post-run exports are
// byte-identical with a sink attached or not.
type StreamSink struct {
	entries []sinkEntry // sorted by label

	traceW   *bufio.Writer
	traceF   *os.File
	metricsW *bufio.Writer
	metricsF *os.File

	self *self.Plane // StreamOptions.Self
	err  error
	line []byte // scratch for one trace line
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
	// Self, when set, counts flushes and written trace records in the
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

// Attach registers a labelled collector with the sink, before the run
// writes it; a collector spills to at most one sink. Flushes write the
// collectors' metrics in label order, and Close the rest of each
// collector's trace in label order, then stream creation order.
func (sk *StreamSink) Attach(label string, c *Collector) {
	sk.entries = append(sk.entries, sinkEntry{label, c})
	sort.SliceStable(sk.entries, func(i, j int) bool { return sk.entries[i].label < sk.entries[j].label })
	if t := c.Tracer(); t != nil && sk.traceW != nil {
		t.sink, t.label = sk, label
	}
}

// Flush writes one metrics snapshot line and pushes both files' buffered
// lines to disk. Call it where no instrument is being written: from the
// simulating goroutine between scheduler runs, or after the run.
func (sk *StreamSink) Flush() error {
	if sk.err != nil {
		return sk.err
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
	}
	return nil
}

// write appends s's records from its flushed cursor to n as trace lines.
// It runs inside Emit, on the goroutine that writes s; an error sticks
// and surfaces at the next Flush or Close.
func (sk *StreamSink) write(label string, s *Stream) {
	prefix := jsonlPrefix(label, s.name)
	for i := s.flushed; i < s.n && sk.err == nil; i++ {
		sk.line = appendJSONL(sk.line[:0], prefix, s.ring[i%uint64(len(s.ring))])
		_, sk.err = sk.traceW.Write(sk.line)
	}
	if sk.self != nil {
		sk.self.StreamRecords.Add(s.n - s.flushed)
	}
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

// Close writes every record not yet spilled, performs a final flush and
// closes the files. Call it after the run, so every emitted record lands
// in the trace file.
func (sk *StreamSink) Close() error {
	for _, e := range sk.entries {
		if t := e.c.Tracer(); t != nil {
			for _, s := range t.streams {
				s.spill()
			}
		}
	}
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
