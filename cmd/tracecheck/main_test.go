package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

const chromeEvents = `{"name":"gen:IngressPacket","ph":"i","ts":0.1,"pid":0,"tid":1,"s":"t"},
{"name":"slot:IngressPacket","ph":"i","ts":0.2,"pid":0,"tid":1,"s":"t"},
{"name":"gen:IngressPacket","ph":"i","ts":0.05,"pid":1,"tid":1,"s":"t"}`

func TestChromeCleanAndTorn(t *testing.T) {
	clean := writeFile(t, "t.json", "[\n"+chromeEvents+"\n]\n")
	if got := check(t, checkChrome, clean); !strings.Contains(got, "3 instant events") ||
		strings.Contains(got, "truncated") {
		t.Errorf("clean summary: %q", got)
	}

	// A streamed array cut before the closing bracket (killed run).
	unclosed := writeFile(t, "unclosed.json", "[\n"+chromeEvents)
	if got := check(t, checkChrome, unclosed); !strings.Contains(got, "3 instant events") ||
		!strings.Contains(got, "truncated tail tolerated") {
		t.Errorf("unclosed summary: %q", got)
	}

	// Cut mid-event: the partial event is dropped, the rest validated.
	midEvent := writeFile(t, "mid.json", "[\n"+chromeEvents+",\n{\"name\":\"gen:Ing")
	if got := check(t, checkChrome, midEvent); !strings.Contains(got, "3 instant events") ||
		!strings.Contains(got, "truncated tail tolerated") {
		t.Errorf("mid-event summary: %q", got)
	}

	// Same-tid streams in different pids are independent for the
	// monotonicity check (streamed sinks namespace collectors by pid),
	// but a reversal inside one (pid, tid) is still an error.
	rev := writeFile(t, "rev.json",
		"[\n"+chromeEvents+",\n{\"name\":\"gen:IngressPacket\",\"ph\":\"i\",\"ts\":0.15,\"pid\":0,\"tid\":1,\"s\":\"t\"}\n]\n")
	if err := checkChrome(io.Discard, rev); err == nil {
		t.Error("non-monotone chrome stream not rejected")
	}
}

const metricsLine = `{"schema":"evbench-metrics/v1","runs":[{"label":"t0","metrics":[` +
	`{"name":"sw.cycles","type":"counter","value":7},` +
	`{"name":"sw.lag","type":"histogram","count":3,"sum":9,"max":4,` +
	`"buckets":[{"Low":0,"High":0,"Count":1},{"Low":3,"High":4,"Count":2}]}]}]}`

func TestMetricsSingleAndStreamed(t *testing.T) {
	// Post-run layout: one indented document, strict checks.
	single := writeFile(t, "m.json",
		"{\n  \"schema\": \"evbench-metrics/v1\",\n  \"runs\": [\n    {\n      \"label\": \"t0\",\n      \"metrics\": []\n    }\n  ]\n}\n")
	if got := check(t, checkMetrics, single); !strings.Contains(got, "1 runs") {
		t.Errorf("single summary: %q", got)
	}

	// Streamed layout: one compact document per flush.
	streamed := writeFile(t, "live.jsonl", metricsLine+"\n"+metricsLine+"\n")
	if got := check(t, checkMetrics, streamed); !strings.Contains(got, "2 snapshots") ||
		strings.Contains(got, "truncated") {
		t.Errorf("streamed summary: %q", got)
	}

	// Torn final snapshot line.
	torn := writeFile(t, "torn.jsonl", metricsLine+"\n"+metricsLine[:40])
	if got := check(t, checkMetrics, torn); !strings.Contains(got, "1 snapshots") ||
		!strings.Contains(got, "truncated tail tolerated") {
		t.Errorf("torn summary: %q", got)
	}

	// A live snapshot can catch max behind its bucket (the watermark
	// races the bucket increment): tolerated for streamed lines only.
	racyMax := strings.Replace(metricsLine, `"max":4`, `"max":9`, 1)
	if err := checkMetrics(io.Discard, writeFile(t, "racy.jsonl", racyMax+"\n"+racyMax+"\n")); err != nil {
		t.Errorf("streamed racy max rejected: %v", err)
	}

	// But a bucket-sum mismatch is corruption in either layout.
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
