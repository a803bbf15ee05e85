package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const jsonlBody = `{"run":"a","stream":"s0","ts_ps":100,"stage":"gen","kind":"IngressPacket","seq":1,"arg":0}
{"run":"a","stream":"s0","ts_ps":200,"stage":"slot","kind":"IngressPacket","outcome":"injected","seq":2,"arg":0}
{"run":"b","stream":"s0","ts_ps":50,"stage":"commit","kind":"BufferEnqueue","outcome":"stored","seq":1,"arg":64}
`

func check(t *testing.T, fn func(io.Writer, string) error, path string) string {
	t.Helper()
	var sb strings.Builder
	if err := fn(&sb, path); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return sb.String()
}

func TestJSONLCleanAndTorn(t *testing.T) {
	clean := writeFile(t, "t.jsonl", jsonlBody)
	if got := check(t, checkJSONL, clean); !strings.Contains(got, "3 records, 2 streams") ||
		strings.Contains(got, "truncated") {
		t.Errorf("clean summary: %q", got)
	}

	// Cut mid-record with no trailing newline: the torn tail is tolerated
	// and flagged, everything before it still validated.
	torn := writeFile(t, "torn.jsonl", jsonlBody+`{"run":"a","stream":"s0","ts_ps":300,"st`)
	if got := check(t, checkJSONL, torn); !strings.Contains(got, "3 records") ||
		!strings.Contains(got, "truncated tail tolerated") {
		t.Errorf("torn summary: %q", got)
	}

	// Mid-file garbage is still an error, not a tolerated tear.
	bad := writeFile(t, "bad.jsonl", `{"run":"a","stream":"s0","ts_ps":100,"st`+"\n"+jsonlBody)
	if err := checkJSONL(io.Discard, bad); err == nil {
		t.Error("mid-file garbage not rejected")
	}

	// Non-monotone timestamps within a stream are still an error.
	mono := writeFile(t, "mono.jsonl", jsonlBody+
		`{"run":"a","stream":"s0","ts_ps":150,"stage":"gen","kind":"IngressPacket","seq":3,"arg":0}`+"\n")
	if err := checkJSONL(io.Discard, mono); err == nil {
		t.Error("non-monotone stream not rejected")
	}
}

// chromeOf converts a JSON-lines trace and decodes the resulting array,
// keeping numbers as written.
func chromeOf(t *testing.T, jsonl string) []traceEvent {
	t.Helper()
	var out bytes.Buffer
	if err := toChrome(&out, strings.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	var evs []traceEvent
	if err := json.Unmarshal(out.Bytes(), &evs); err != nil {
		t.Fatalf("converted trace is not a JSON array: %v\n%s", err, out.String())
	}
	return evs
}

// TestChromeConversion: runs become processes and streams threads in
// first-appearance order, each named before its first instant; every
// record becomes one thread-scoped instant with the stage args; a torn
// tail converts up to the tear.
func TestChromeConversion(t *testing.T) {
	evs := chromeOf(t, jsonlBody)
	want := []string{
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"a"}}`,
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"s0"}}`,
		`{"name":"gen","ph":"i","ts":0.0001,"pid":0,"tid":0,"s":"t","args":{"kind":"IngressPacket","port":0,"seq":1}}`,
		`{"name":"slot:injected","ph":"i","ts":0.0002,"pid":0,"tid":0,"s":"t","args":{"cycle":2,"kind":"IngressPacket","outcome":"injected"}}`,
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"b"}}`,
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"s0"}}`,
		`{"name":"commit:stored","ph":"i","ts":0.00005,"pid":1,"tid":0,"s":"t","args":{"index":1,"lag_cycles":64}}`,
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if b, _ := json.Marshal(ev); string(b) != want[i] {
			t.Errorf("event %d:\n got %s\nwant %s", i, b, want[i])
		}
	}

	torn := chromeOf(t, jsonlBody+`{"run":"a","stream":"s0","ts_ps":300,"st`)
	if len(torn) != len(want) {
		t.Errorf("torn trace converted to %d events, want %d", len(torn), len(want))
	}
	if err := toChrome(io.Discard, strings.NewReader(`{"run":"a","st`+"\n"+jsonlBody)); err == nil {
		t.Error("mid-file garbage converted")
	}
}

// chromeCanonical hashes a Chrome trace-event array in a form that does
// not depend on how pids and tids are numbered: every instant as
// run-label, stream-name, name, ts and args JSON (tab-separated, in file
// order), then the sorted run/stream thread names. It also requires
// every pid to carry a process_name and every (pid, tid) with an instant
// a thread_name.
func chromeCanonical(t *testing.T, b []byte) uint64 {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var evs []struct {
		Name, Ph string
		Ts       json.Number
		Pid, Tid int
		Args     map[string]any
	}
	if err := dec.Decode(&evs); err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	for _, ev := range evs {
		name, _ := ev.Args["name"].(string)
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procs[ev.Pid] = name
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads[[2]int{ev.Pid, ev.Tid}] = name
		}
	}
	h := fnv.New64a()
	for _, ev := range evs {
		if ev.Ph != "i" {
			continue
		}
		run, ok := procs[ev.Pid]
		if !ok {
			t.Fatalf("pid %d has no process_name", ev.Pid)
		}
		stream, ok := threads[[2]int{ev.Pid, ev.Tid}]
		if !ok {
			t.Fatalf("pid %d tid %d has no thread_name", ev.Pid, ev.Tid)
		}
		ts, err := ev.Ts.Float64()
		if err != nil {
			t.Fatal(err)
		}
		args, _ := json.Marshal(ev.Args)
		fmt.Fprintf(h, "%s\t%s\t%s\t%s\t%s\n", run, stream, ev.Name, strconv.FormatFloat(ts, 'g', -1, 64), args)
	}
	var names []string
	for k, stream := range threads {
		names = append(names, procs[k[0]]+"\t"+stream)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(h, n)
	}
	return h.Sum64()
}

// hulaChromeCanonical is chromeCanonical of the in-process Chrome encoder
// that the trace exporter carried before JSON lines became the only
// on-disk format, on the hula export at one domain. The converter must
// reproduce it from that export's JSON lines: equivalence up to pid/tid
// numbering, which the retired encoder took from stream creation order.
const hulaChromeCanonical = 0xf5087c34840fa3f8

func TestChromeMatchesRetiredEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hula experiment")
	}
	hula, ok := bench.Get("hula")
	if !ok {
		t.Fatal("experiment hula not registered")
	}
	env := &bench.Env{Domains: 1, Telemetry: &telemetry.Options{
		TraceCap:     telemetry.DefaultTraceCap,
		SamplePeriod: telemetry.DefaultSamplePeriod,
	}}
	hula.Run(env)
	trace, err := telemetry.EncodeJSONL(env.TelemetryRuns())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := toChrome(&out, bytes.NewReader(trace)); err != nil {
		t.Fatal(err)
	}
	if got := chromeCanonical(t, out.Bytes()); got != hulaChromeCanonical {
		t.Errorf("canonical Chrome form = %#x, want %#x", got, uint64(hulaChromeCanonical))
	}
}

// FuzzTraceJSONL holds the one trace reader to its contract on any
// input: it never panics; an accepted input followed by a torn line with
// no newline is still accepted with the same records, while the same
// line terminated mid-file is an error; and every accepted input
// converts to a Chrome array that encoding/json parses, with one instant
// per record.
func FuzzTraceJSONL(f *testing.F) {
	f.Add([]byte(jsonlBody))
	f.Add([]byte(jsonlBody + `{"run":"a","stream":"s0","ts_ps":300,"st`))
	f.Add([]byte(`{"run":"a","stream":"s0","ts_ps":100,"st` + "\n" + jsonlBody))
	f.Add([]byte(jsonlBody + `{"run":"a","stream":"s0","ts_ps":150,"stage":"gen","kind":"IngressPacket","seq":3,"arg":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, _, _, err := readJSONL(bytes.NewReader(data), func(*traceRec) {})
		if err != nil {
			return
		}
		if len(data) == 0 || data[len(data)-1] == '\n' {
			const tear = `{"run":"a","st`
			m, _, truncated, err := readJSONL(bytes.NewReader(append(data[:len(data):len(data)], tear...)), func(*traceRec) {})
			if err != nil || !truncated || m != n {
				t.Errorf("torn tail: %d records, truncated=%v, err=%v; want %d, true, nil", m, truncated, err, n)
			}
			garbage := append(data[:len(data):len(data)], tear+"\n"...)
			if _, _, _, err := readJSONL(bytes.NewReader(garbage), func(*traceRec) {}); err == nil {
				t.Error("garbage line before end of file accepted")
			}
		}
		var out bytes.Buffer
		if err := toChrome(&out, bytes.NewReader(data)); err != nil {
			t.Fatalf("accepted input does not convert: %v", err)
		}
		var evs []traceEvent
		if err := json.Unmarshal(out.Bytes(), &evs); err != nil {
			t.Fatalf("converted trace is not a JSON array: %v", err)
		}
		instants := 0
		for _, ev := range evs {
			if ev.Ph == "i" {
				instants++
			}
		}
		if instants != n {
			t.Errorf("%d instants for %d records", instants, n)
		}
	})
}

const metricsLine = `{"schema":"evbench-metrics/v1","runs":[{"label":"t0","metrics":[` +
	`{"name":"sw.cycles","type":"counter","value":7},` +
	`{"name":"sw.lag","type":"histogram","count":3,"sum":9,"max":4,` +
	`"buckets":[{"Low":0,"High":0,"Count":1},{"Low":3,"High":4,"Count":2}]}],` +
	`"trace_records":12,"trace_dropped":0}]}`

func TestMetricsSingleAndStreamed(t *testing.T) {
	// Post-run layout: one indented document, strict checks.
	// The summary says how much of each run's trace the rings overwrote.
	singleDoc := "{\n  \"schema\": \"evbench-metrics/v1\",\n  \"runs\": [\n    {\n      \"label\": \"t0\",\n" +
		"      \"metrics\": [],\n      \"trace_records\": 40,\n      \"trace_dropped\": 8\n    }\n  ]\n}\n"
	single := writeFile(t, "m.json", singleDoc)
	if got := check(t, checkMetrics, single); !strings.Contains(got, "1 runs") ||
		!strings.Contains(got, "t0 trace_records=40 trace_dropped=8") {
		t.Errorf("single summary: %q", got)
	}

	// Streamed layout: one compact document per flush; the summary's
	// trace counts are the last document's.
	grown := strings.Replace(metricsLine, `"trace_records":12,"trace_dropped":0`, `"trace_records":20,"trace_dropped":4`, 1)
	streamed := writeFile(t, "live.jsonl", metricsLine+"\n"+grown+"\n")
	if got := check(t, checkMetrics, streamed); !strings.Contains(got, "2 snapshots") ||
		!strings.Contains(got, "t0 trace_records=20 trace_dropped=4") || strings.Contains(got, "truncated") {
		t.Errorf("streamed summary: %q", got)
	}

	// A run cannot overwrite more records than it emitted, in either
	// layout.
	overSingle := strings.Replace(singleDoc, `"trace_dropped": 8`, `"trace_dropped": 41`, 1)
	if err := checkMetrics(io.Discard, writeFile(t, "over.json", overSingle)); err == nil {
		t.Error("post-run trace_dropped > trace_records not rejected")
	}
	overLine := strings.Replace(metricsLine, `"trace_dropped":0`, `"trace_dropped":13`, 1)
	if err := checkMetrics(io.Discard, writeFile(t, "over.jsonl", metricsLine+"\n"+overLine+"\n")); err == nil {
		t.Error("streamed trace_dropped > trace_records not rejected")
	}

	// Torn final snapshot line.
	torn := writeFile(t, "torn.jsonl", metricsLine+"\n"+metricsLine[:40])
	if got := check(t, checkMetrics, torn); !strings.Contains(got, "1 snapshots") ||
		!strings.Contains(got, "truncated tail tolerated") {
		t.Errorf("torn summary: %q", got)
	}

	// Streamed lines are snapshots taken between scheduler runs, checked
	// as strictly as a post-run document: a max outside the top bucket
	// is corruption, as is a bucket-sum mismatch.
	badMax := strings.Replace(metricsLine, `"max":4`, `"max":9`, 1)
	if err := checkMetrics(io.Discard, writeFile(t, "badmax.jsonl", badMax+"\n"+badMax+"\n")); err == nil {
		t.Error("streamed max outside its top bucket not rejected")
	}
	badSum := strings.Replace(metricsLine, `"count":3`, `"count":5`, 1)
	if err := checkMetrics(io.Discard, writeFile(t, "badsum.jsonl", badSum+"\n"+badSum+"\n")); err == nil {
		t.Error("streamed bucket-sum mismatch not rejected")
	}
}

// TestRealExportValidates runs the checkers over what the harness really
// exports, not hand-written fixtures: the hula experiment's trace and
// metrics, produced in process at 1 and at 2 partition domains, must
// both validate and must be byte-identical across the two.
func TestRealExportValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hula experiment twice")
	}
	hula, ok := bench.Get("hula")
	if !ok {
		t.Fatal("experiment hula not registered")
	}
	dir := t.TempDir()
	export := func(domains int) (trace, metrics []byte) {
		env := &bench.Env{Domains: domains, Telemetry: &telemetry.Options{
			TraceCap:     telemetry.DefaultTraceCap,
			SamplePeriod: telemetry.DefaultSamplePeriod,
		}}
		hula.Run(env)
		tp := filepath.Join(dir, "hula.jsonl")
		mp := filepath.Join(dir, "hula.json")
		if err := env.WriteTrace(tp); err != nil {
			t.Fatal(err)
		}
		if err := env.WriteMetrics(mp); err != nil {
			t.Fatal(err)
		}
		if got := check(t, checkJSONL, tp); strings.Contains(got, "truncated") {
			t.Errorf("domains=%d trace: %q", domains, got)
		}
		check(t, checkMetrics, mp)
		var err error
		if trace, err = os.ReadFile(tp); err != nil {
			t.Fatal(err)
		}
		if metrics, err = os.ReadFile(mp); err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}
	t1, m1 := export(1)
	t2, m2 := export(2)
	if len(t1) == 0 || len(m1) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace differs between 1 and 2 domains")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics differ between 1 and 2 domains")
	}
}
