package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry/self"
)

// StreamSink incrementally flushes trace records and metric snapshots to
// disk while the run executes, so long campaigns leave observable output
// before they finish (the ROADMAP's evsimd item: stream telemetry
// incrementally instead of post-run). A sink drains each attached
// collector's trace rings on a wall-clock ticker (or whenever the host
// calls Flush, e.g. from a sim-time Every callback), writing:
//
//   - trace records as JSONL lines, the same jsonlRec EncodeJSONL writes
//     (run/stream/ts_ps/stage/kind/outcome/seq/arg);
//   - one compact "evbench-metrics/v1" document per flush as a JSONL
//     line in the metrics file.
//
// Both outputs are append-only, so a crash mid-flush leaves at most one
// torn final record — the same tolerance contract as bench.Journal, and
// what cmd/tracecheck's truncated-file mode accepts. Collectors attached
// to a sink must be built with Options.Live; draining never disturbs the
// rings, so the run's post-run exports are byte-identical with a sink
// attached or not.
type StreamSink struct {
	mu      sync.Mutex
	entries []sinkEntry

	traceW   *bufio.Writer
	traceF   *os.File
	metricsW *bufio.Writer
	metricsF *os.File

	self   *self.Plane // StreamOptions.Self
	buf    []Rec
	ticker *time.Ticker
	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
	err    error
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
	// Interval is the wall-clock flush period for Start; 0 means the
	// host drives flushes itself via Flush.
	Interval time.Duration
	// Self, when set, counts flushes and flushed/lost records in the
	// run's self-metrics plane.
	Self *self.Plane
}

// NewStreamSink opens the output files. At least one path must be set.
func NewStreamSink(opts StreamOptions) (*StreamSink, error) {
	if opts.TracePath == "" && opts.MetricsPath == "" {
		return nil, fmt.Errorf("telemetry: stream sink needs a trace or metrics path")
	}
	sk := &StreamSink{done: make(chan struct{}), self: opts.Self}
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
	if opts.Interval > 0 {
		sk.ticker = time.NewTicker(opts.Interval)
		sk.wg.Add(1)
		go func() {
			defer sk.wg.Done()
			for {
				select {
				case <-sk.done:
					return
				case <-sk.ticker.C:
					sk.Flush()
				}
			}
		}()
	}
	return sk, nil
}

// Attach registers a labelled collector with the sink. The collector
// must be in live mode (Options.Live). Safe to call while the sink is
// flushing — trials attach as they start.
func (sk *StreamSink) Attach(label string, c *Collector) {
	if !c.Registry().Live() {
		panic("telemetry: StreamSink.Attach needs a live collector (Options.Live)")
	}
	sk.mu.Lock()
	sk.entries = append(sk.entries, sinkEntry{label, c})
	sk.mu.Unlock()
}

// Flush drains every attached collector's streams and writes one metrics
// snapshot line. Serialized internally; safe from any goroutine.
func (sk *StreamSink) Flush() error {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.flushLocked()
}

func (sk *StreamSink) flushLocked() error {
	if sk.err != nil {
		return sk.err
	}
	// Stable order: label, then stream creation order within a collector.
	entries := append([]sinkEntry(nil), sk.entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].label < entries[j].label })
	var wrote uint64
	for _, e := range entries {
		t := e.c.Tracer()
		if t == nil || sk.traceW == nil {
			continue
		}
		streams := t.Streams()
		for _, s := range streams {
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
		if err := sk.writeMetricsLine(entries); err != nil {
			sk.err = err
			return err
		}
	}
	if sk.traceW != nil {
		if err := sk.traceW.Flush(); err != nil {
			sk.err = err
			return err
		}
	}
	if sk.metricsW != nil {
		if err := sk.metricsW.Flush(); err != nil {
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
func (sk *StreamSink) writeMetricsLine(entries []sinkEntry) error {
	doc := metricsDoc{Schema: MetricsSchema, Runs: []metricsRun{}}
	for _, e := range entries {
		doc.add(e.label, e.c)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	sk.metricsW.Write(b)
	return sk.metricsW.WriteByte('\n')
}

// Close performs a final flush and closes the files. Call after the run quiesces and before post-run
// exports, so every emitted record lands in the streamed files.
func (sk *StreamSink) Close() error {
	sk.mu.Lock()
	if sk.closed {
		sk.mu.Unlock()
		return sk.err
	}
	sk.closed = true
	close(sk.done)
	if sk.ticker != nil {
		sk.ticker.Stop()
	}
	sk.mu.Unlock()
	sk.wg.Wait()

	sk.mu.Lock()
	defer sk.mu.Unlock()
	sk.flushLocked()
	if sk.traceW != nil {
		if err := sk.traceW.Flush(); err != nil && sk.err == nil {
			sk.err = err
		}
		if err := sk.traceF.Close(); err != nil && sk.err == nil {
			sk.err = err
		}
	}
	if sk.metricsW != nil {
		if err := sk.metricsW.Flush(); err != nil && sk.err == nil {
			sk.err = err
		}
		if err := sk.metricsF.Close(); err != nil && sk.err == nil {
			sk.err = err
		}
	}
	return sk.err
}
