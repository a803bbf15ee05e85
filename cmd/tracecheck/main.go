// Command tracecheck validates telemetry export files without external
// JSON tooling, and converts a trace for Perfetto.
//
//	tracecheck -trace t.jsonl                # JSON-lines trace
//	tracecheck -metrics m.json               # evbench-metrics/v1 document
//	tracecheck -metrics live.jsonl           # streamed: one document line per flush
//	tracecheck -chrome t.jsonl > t.json      # Chrome/Perfetto trace-event array
//
// Each file is parsed and schema-checked (required fields, known stage /
// outcome / metric-type vocabularies, monotone timestamps per stream); a
// one-line summary per valid file goes to stdout, problems to stderr with
// exit status 1. A metrics summary gives each run's trace_records and
// trace_dropped (records its rings overwrote, so missing from its post-run
// trace), and a document whose trace_dropped exceeds trace_records is
// refused.
//
// Incrementally streamed files (evsim -stream-trace / -stream-metrics)
// are accepted too, including ones cut short by a crash: a torn final
// line is tolerated and reported as "truncated tail" in the summary
// rather than failing the file. Everything before the tear is still
// validated in full. Streamed metrics files hold one compact document
// per flush, each checked as strictly as a post-run document: the
// simulating goroutine takes every snapshot between two scheduler runs,
// so no snapshot races its writers.
//
// JSON lines are the only trace format the simulator writes. -chrome
// reads one with the same reader -trace uses (a torn tail converts up to
// the tear) and writes the Chrome trace-event array that
// ui.perfetto.dev and chrome://tracing open: each run a process and each
// stream a thread, numbered in order of first appearance, one instant
// per record with timestamps in simulated microseconds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

var stages = map[string]bool{
	"gen": true, "enqueue": true, "merge": true, "slot": true, "commit": true,
}

var outcomes = map[string]bool{
	"": true, "stored": true, "coalesced": true, "shed": true, "dropped": true,
	"piggyback": true, "injected": true,
}

var metricTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
}

func main() {
	traceFile := flag.String("trace", "", "JSON-lines trace `file` to validate")
	metricsFile := flag.String("metrics", "", "metrics document `file` to validate")
	chromeFile := flag.String("chrome", "",
		"convert the JSON-lines trace `file` to a Chrome/Perfetto trace-event array on stdout")
	flag.Parse()

	if *chromeFile != "" {
		if *traceFile != "" || *metricsFile != "" {
			fmt.Fprintln(os.Stderr, "tracecheck: -chrome writes to stdout and takes no other flag")
			os.Exit(2)
		}
		f, err := os.Open(*chromeFile)
		if err == nil {
			err = toChrome(os.Stdout, f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *chromeFile, err)
			os.Exit(1)
		}
		return
	}
	if *traceFile == "" && *metricsFile == "" {
		fmt.Fprintln(os.Stderr, "tracecheck: nothing to do (need -trace, -metrics or -chrome)")
		os.Exit(2)
	}
	ok := true
	if *traceFile != "" {
		if err := checkJSONL(os.Stdout, *traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *traceFile, err)
			ok = false
		}
	}
	if *metricsFile != "" {
		if err := checkMetrics(os.Stdout, *metricsFile); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", *metricsFile, err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// tailNote renders the truncated flag for the summary line.
func tailNote(truncated bool) string {
	if truncated {
		return " (truncated tail tolerated)"
	}
	return ""
}

// traceRec is one line of a JSON-lines trace.
type traceRec struct {
	Run     string `json:"run"`
	Stream  string `json:"stream"`
	TsPs    int64  `json:"ts_ps"`
	Stage   string `json:"stage"`
	Kind    string `json:"kind"`
	Outcome string `json:"outcome"`
	Seq     uint64 `json:"seq"`
	Arg     uint64 `json:"arg"`
}

// readJSONL is the one trace reader. It validates every line — an object
// with run/stream/stage, known stage and outcome names, monotone ts_ps
// per (run, stream) — and hands each record to fn in file order. A final
// line with no terminating newline that fails to parse is a torn tail
// from an interrupted streamed run: it is tolerated and reported as
// truncated. It returns the number of records and streams read.
func readJSONL(r io.Reader, fn func(*traceRec)) (n, streams int, truncated bool, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	lastTs := map[string]int64{}
	for {
		line, rerr := br.ReadString('\n')
		atEOF := errors.Is(rerr, io.EOF)
		if rerr != nil && !atEOF {
			return n, len(lastTs), false, rerr
		}
		if strings.TrimSpace(line) != "" {
			var rec traceRec
			if jerr := json.Unmarshal([]byte(line), &rec); jerr != nil {
				if atEOF {
					return n, len(lastTs), true, nil
				}
				return n, len(lastTs), false, fmt.Errorf("line %d: %w", n+1, jerr)
			}
			n++
			key := rec.Run + "\x00" + rec.Stream
			switch {
			case rec.Run == "" || rec.Stream == "":
				err = errors.New("missing run/stream")
			case !stages[rec.Stage]:
				err = fmt.Errorf("unknown stage %q", rec.Stage)
			case !outcomes[rec.Outcome]:
				err = fmt.Errorf("unknown outcome %q", rec.Outcome)
			case rec.TsPs < lastTs[key]:
				err = fmt.Errorf("ts_ps not monotone within stream %s/%s", rec.Run, rec.Stream)
			}
			if err != nil {
				return n, len(lastTs), false, fmt.Errorf("line %d: %w", n, err)
			}
			lastTs[key] = rec.TsPs
			fn(&rec)
		}
		if atEOF {
			return n, len(lastTs), false, nil
		}
	}
}

// checkJSONL validates a JSON-lines trace file and prints its summary.
func checkJSONL(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, streams, truncated, err := readJSONL(f, func(*traceRec) {})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tracecheck: %s ok: %d records, %d streams%s\n", path, n, streams, tailNote(truncated))
	return nil
}

// traceEvent is one Chrome trace-event object: an instant ("ph":"i") per
// record, or metadata ("ph":"M") naming a run's process or a stream's
// thread.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of simulated time
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args map[string]any `json:"args,omitempty"`
}

// instantArgs rebuilds a record's stage-specific args; the keys are fixed
// per stage.
func instantArgs(r *traceRec) map[string]any {
	switch r.Stage {
	case "gen":
		return map[string]any{"kind": r.Kind, "seq": r.Seq, "port": int64(r.Arg)}
	case "enqueue":
		return map[string]any{"kind": r.Kind, "seq": r.Seq, "outcome": r.Outcome}
	case "merge":
		return map[string]any{"kind": r.Kind, "seq": r.Seq, "cycle": r.Arg, "outcome": r.Outcome}
	case "slot":
		return map[string]any{"kind": r.Kind, "cycle": r.Seq, "outcome": r.Outcome}
	}
	return map[string]any{"index": r.Seq, "lag_cycles": r.Arg} // commit
}

// toChrome converts a JSON-lines trace into a Chrome trace-event array.
// Runs become processes and streams threads, numbered by first
// appearance; each is named by a metadata event just before its first
// instant. Write errors surface at the final flush.
func toChrome(w io.Writer, r io.Reader) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	sep := "\n"
	emit := func(ev traceEvent) {
		b, _ := json.Marshal(ev) // strings and numbers only: cannot fail
		bw.WriteString(sep)
		bw.Write(b)
		sep = ",\n"
	}
	pids := map[string]int{}
	tids := map[[2]string]int{}
	threads := map[string]int{} // streams seen so far per run
	_, _, _, err := readJSONL(r, func(rec *traceRec) {
		pid, ok := pids[rec.Run]
		if !ok {
			pid = len(pids)
			pids[rec.Run] = pid
			emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": rec.Run}})
		}
		tid, ok := tids[[2]string{rec.Run, rec.Stream}]
		if !ok {
			tid = threads[rec.Run]
			threads[rec.Run]++
			tids[[2]string{rec.Run, rec.Stream}] = tid
			emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": rec.Stream}})
		}
		name := rec.Stage
		if rec.Outcome != "" {
			name += ":" + rec.Outcome
		}
		emit(traceEvent{Name: name, Ph: "i", S: "t", Ts: float64(rec.TsPs) / 1e6,
			Pid: pid, Tid: tid, Args: instantArgs(rec)})
	})
	if err != nil {
		return err
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

type metricsDoc struct {
	Schema string `json:"schema"`
	Runs   []struct {
		Label        string `json:"label"`
		TraceRecords uint64 `json:"trace_records"`
		TraceDropped uint64 `json:"trace_dropped"`
		Metrics      []struct {
			Name    string `json:"name"`
			Type    string `json:"type"`
			Count   uint64 `json:"count"`
			Max     uint64 `json:"max"`
			Buckets []struct {
				Low, High, Count uint64
			} `json:"buckets"`
		} `json:"metrics"`
	} `json:"runs"`
}

// validateMetricsDoc schema-checks one document and returns the metric
// count.
func validateMetricsDoc(doc *metricsDoc) (int, error) {
	if doc.Schema != "evbench-metrics/v1" {
		return 0, fmt.Errorf("unexpected schema %q", doc.Schema)
	}
	total := 0
	for _, run := range doc.Runs {
		if run.Label == "" {
			return 0, fmt.Errorf("run without label")
		}
		if run.TraceDropped > run.TraceRecords {
			return 0, fmt.Errorf("run %s: trace_dropped %d exceeds trace_records %d",
				run.Label, run.TraceDropped, run.TraceRecords)
		}
		prev := ""
		prevType := ""
		for _, m := range run.Metrics {
			total++
			if m.Name == "" || !metricTypes[m.Type] {
				return 0, fmt.Errorf("run %s: bad metric %q type %q", run.Label, m.Name, m.Type)
			}
			if m.Name < prev || (m.Name == prev && m.Type <= prevType) {
				return 0, fmt.Errorf("run %s: metrics not in sorted order at %q", run.Label, m.Name)
			}
			prev, prevType = m.Name, m.Type
			if m.Type == "histogram" {
				var inBuckets uint64
				for _, b := range m.Buckets {
					if b.Low > b.High {
						return 0, fmt.Errorf("run %s: metric %s: inverted bucket", run.Label, m.Name)
					}
					inBuckets += b.Count
				}
				if inBuckets != m.Count {
					return 0, fmt.Errorf("run %s: metric %s: bucket counts %d != count %d",
						run.Label, m.Name, inBuckets, m.Count)
				}
				if len(m.Buckets) > 0 {
					last := m.Buckets[len(m.Buckets)-1]
					if m.Max < last.Low || m.Max > last.High {
						return 0, fmt.Errorf("run %s: metric %s: max %d outside top bucket [%d,%d]",
							run.Label, m.Name, m.Max, last.Low, last.High)
					}
				}
			}
		}
	}
	return total, nil
}

// traceNote renders each run's trace_records and trace_dropped for the
// summary line. A run with trace_dropped > 0 overwrote that many records
// in its rings: its post-run trace holds only the rings' tails.
func traceNote(doc *metricsDoc) string {
	var b strings.Builder
	for _, run := range doc.Runs {
		fmt.Fprintf(&b, "; %s trace_records=%d trace_dropped=%d", run.Label, run.TraceRecords, run.TraceDropped)
	}
	return b.String()
}

// checkMetrics validates an evbench-metrics/v1 document. Two layouts are
// accepted: the post-run export (one indented document spanning the whole
// file) and the streamed form (one compact document per line, one line
// per flush, torn final line tolerated), both checked alike. The summary
// gives each run's trace counts, from the last complete document.
func checkMetrics(out io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc metricsDoc
	if err := json.Unmarshal(data, &doc); err == nil {
		total, err := validateMetricsDoc(&doc)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "tracecheck: %s ok: %d runs, %d metrics%s\n", path, len(doc.Runs), total, traceNote(&doc))
		return nil
	}
	// Streamed layout: one compact document line per flush.
	lines := strings.Split(string(data), "\n")
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	docs, total := 0, 0
	truncated := false
	var last metricsDoc
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var d metricsDoc
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			if torn && i == len(lines)-1 {
				truncated = true
				break
			}
			return fmt.Errorf("snapshot line %d: %w", i+1, err)
		}
		n, err := validateMetricsDoc(&d)
		if err != nil {
			return fmt.Errorf("snapshot line %d: %w", i+1, err)
		}
		docs++
		total += n
		last = d
	}
	if docs == 0 && !truncated {
		return fmt.Errorf("no metrics documents")
	}
	fmt.Fprintf(out, "tracecheck: %s ok: %d snapshots, %d metrics%s%s\n",
		path, docs, total, traceNote(&last), tailNote(truncated))
	return nil
}
