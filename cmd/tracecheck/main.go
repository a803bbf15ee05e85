// Command tracecheck validates telemetry export files without external
// JSON tooling.
//
//	tracecheck -trace t.json         # Chrome trace-event JSON
//	tracecheck -trace t.jsonl        # JSON-lines trace
//	tracecheck -metrics m.json       # evbench-metrics/v1 document
//	tracecheck -metrics live.jsonl   # streamed: one document line per flush
//
// Each file is parsed and schema-checked (required fields, known stage /
// outcome / metric-type vocabularies, monotone timestamps per stream); a
// one-line summary per valid file goes to stdout, problems to stderr with
// exit status 1.
//
// Incrementally streamed files (-stream-trace / -stream-metrics) are
// accepted too, including ones cut short by a crash: a torn final record
// — a truncated last JSONL line, an unterminated Chrome event array — is
// tolerated and reported as "truncated tail" in the summary rather than
// failing the file. Everything before the tear is still validated in
// full. Streamed metrics files hold one compact document per flush;
// their histogram snapshots are taken while writers run, so the
// max-in-top-bucket check (which only converges at quiescence) is
// relaxed for them while the bucket-sum invariant stays enforced.
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
	traceFile := flag.String("trace", "", "trace `file` to validate (.jsonl = JSON lines, else Chrome JSON)")
	metricsFile := flag.String("metrics", "", "metrics document `file` to validate")
	flag.Parse()

	if *traceFile == "" && *metricsFile == "" {
		fmt.Fprintln(os.Stderr, "tracecheck: nothing to do (need -trace and/or -metrics)")
		os.Exit(2)
	}
	ok := true
	if *traceFile != "" {
		var err error
		if strings.HasSuffix(*traceFile, ".jsonl") {
			err = checkJSONL(os.Stdout, *traceFile)
		} else {
			err = checkChrome(os.Stdout, *traceFile)
		}
		if err != nil {
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

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// checkChrome validates a Chrome trace-event JSON array: metadata events
// name processes/threads, instant events carry a valid stage name and
// non-decreasing timestamps per (pid, tid). The events are decoded one
// at a time, so an incrementally streamed array whose writer died before
// the closing bracket — or mid-event — validates up to the tear.
func checkChrome(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("not a JSON array of trace events: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("not a JSON array of trace events (starts with %v)", tok)
	}
	meta, instants := 0, 0
	truncated := false
	lastTs := map[[2]int]float64{}
	for i := 0; ; i++ {
		if !dec.More() {
			// A clean array closes with ']'; a streamed file cut short
			// just stops.
			if _, err := dec.Token(); err != nil {
				truncated = true
			}
			break
		}
		var ev chromeEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				truncated = true
				break
			}
			return fmt.Errorf("event %d: %w", i, err)
		}
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == nil {
				return fmt.Errorf("event %d: metadata without args.name", i)
			}
		case "i":
			instants++
			stage, _, _ := strings.Cut(ev.Name, ":")
			if !stages[stage] {
				return fmt.Errorf("event %d: unknown stage %q", i, ev.Name)
			}
			if ev.Ts < 0 {
				return fmt.Errorf("event %d: negative timestamp", i)
			}
			key := [2]int{ev.Pid, ev.Tid}
			if ev.Ts < lastTs[key] {
				return fmt.Errorf("event %d: timestamps not monotone within stream pid=%d tid=%d", i, ev.Pid, ev.Tid)
			}
			lastTs[key] = ev.Ts
		default:
			return fmt.Errorf("event %d: unexpected ph %q", i, ev.Ph)
		}
	}
	fmt.Fprintf(out, "tracecheck: %s ok: %d instant events, %d metadata, %d streams%s\n",
		path, instants, meta, len(lastTs), tailNote(truncated))
	return nil
}

// checkJSONL validates a JSON-lines trace: every line an object with
// run/stream/stage, known stage and outcome names, monotone ts_ps per
// (run, stream). A final line with no terminating newline that fails to
// parse is a torn tail from an interrupted streamed run — tolerated.
func checkJSONL(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	n := 0
	truncated := false
	lastTs := map[string]int64{}
	for {
		line, err := r.ReadString('\n')
		atEOF := errors.Is(err, io.EOF)
		if err != nil && !atEOF {
			return err
		}
		if strings.TrimSpace(line) == "" {
			if atEOF {
				break
			}
			continue
		}
		n++
		var rec struct {
			Run     string `json:"run"`
			Stream  string `json:"stream"`
			TsPs    int64  `json:"ts_ps"`
			Stage   string `json:"stage"`
			Kind    string `json:"kind"`
			Outcome string `json:"outcome"`
		}
		if jerr := json.Unmarshal([]byte(line), &rec); jerr != nil {
			if atEOF {
				// Unterminated final line: torn tail from a live stream.
				n--
				truncated = true
				break
			}
			return fmt.Errorf("line %d: %w", n, jerr)
		}
		if rec.Run == "" || rec.Stream == "" {
			return fmt.Errorf("line %d: missing run/stream", n)
		}
		if !stages[rec.Stage] {
			return fmt.Errorf("line %d: unknown stage %q", n, rec.Stage)
		}
		if !outcomes[rec.Outcome] {
			return fmt.Errorf("line %d: unknown outcome %q", n, rec.Outcome)
		}
		key := rec.Run + "\x00" + rec.Stream
		if rec.TsPs < lastTs[key] {
			return fmt.Errorf("line %d: ts_ps not monotone within stream %s/%s", n, rec.Run, rec.Stream)
		}
		lastTs[key] = rec.TsPs
		if atEOF {
			break
		}
	}
	fmt.Fprintf(out, "tracecheck: %s ok: %d records, %d streams%s\n",
		path, n, len(lastTs), tailNote(truncated))
	return nil
}

type metricsDoc struct {
	Schema string `json:"schema"`
	Runs   []struct {
		Label   string `json:"label"`
		Metrics []struct {
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
// count. Streamed documents are snapshotted while writers run: bucket
// counts and the derived total stay consistent (the snapshot sums the
// buckets), but the max watermark races its bucket by design, so the
// max-in-top-bucket check only applies to quiescent (post-run) docs.
func validateMetricsDoc(doc *metricsDoc, streamed bool) (int, error) {
	if doc.Schema != "evbench-metrics/v1" {
		return 0, fmt.Errorf("unexpected schema %q", doc.Schema)
	}
	total := 0
	for _, run := range doc.Runs {
		if run.Label == "" {
			return 0, fmt.Errorf("run without label")
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
				if !streamed && len(m.Buckets) > 0 {
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

// checkMetrics validates an evbench-metrics/v1 document. Two layouts are
// accepted: the post-run export (one indented document spanning the whole
// file, checked strictly) and the streamed form (one compact document per
// line, one line per flush, torn final line tolerated).
func checkMetrics(out io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc metricsDoc
	if err := json.Unmarshal(data, &doc); err == nil {
		total, err := validateMetricsDoc(&doc, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "tracecheck: %s ok: %d runs, %d metrics\n", path, len(doc.Runs), total)
		return nil
	}
	// Streamed layout: one compact document line per flush.
	lines := strings.Split(string(data), "\n")
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	docs, total := 0, 0
	truncated := false
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
		n, err := validateMetricsDoc(&d, true)
		if err != nil {
			return fmt.Errorf("snapshot line %d: %w", i+1, err)
		}
		docs++
		total += n
	}
	if docs == 0 && !truncated {
		return fmt.Errorf("no metrics documents")
	}
	fmt.Fprintf(out, "tracecheck: %s ok: %d snapshots, %d metrics%s\n",
		path, docs, total, tailNote(truncated))
	return nil
}
