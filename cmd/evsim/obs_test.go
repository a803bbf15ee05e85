package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read evsim's stderr while the run goroutine
// is still writing to it (the introspection address is printed mid-run).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// slowWriter delays every write, so a run that prints -trace slot lines
// spans enough wall time for several -stream-every publishes.
type slowWriter struct{ bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(100 * time.Microsecond)
	return w.Buffer.Write(p)
}

var (
	runCyclesRe = regexp.MustCompile(`ev_run_sw_evsim_cycles\{run="evsim"\} [1-9]`)
	dispatchRe  = regexp.MustCompile(`ev_self_sched_dispatch [1-9]`)
)

// TestObsLivePlane drives evsim's observability plane end to end, in
// process: it scrapes /metrics and /status while the run executes until
// the published registry snapshot (ev_run_*) and the scheduler's
// dispatch count are both non-zero, and then holds the run to a plain
// one — stdout, the -tracefile bytes and the -metrics bytes — and the
// streamed trace to the post-run one. The flags keep every trace ring
// from wrapping, so the two traces hold the same records; they differ
// only in order (per flush and stream, versus merged by time). Under the
// race detector this is the check that the endpoint and the sink read
// nothing the simulation is writing.
func TestObsLivePlane(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	base := []string{"-ms", "10", "-load", "0.05", "-size", "1514", "-trace", "1000"}
	plainArgs := append(slices.Clone(base), "-tracefile", path("plain.jsonl"), "-metrics", path("plain.json"))
	var plain bytes.Buffer
	if code := run(plainArgs, &plain, io.Discard); code != exitOK {
		t.Fatalf("plain run exited %d", code)
	}

	obsArgs := append(slices.Clone(base),
		"-tracefile", path("obs.jsonl"), "-metrics", path("obs.json"),
		"-http", "127.0.0.1:0",
		"-stream-trace", path("live.jsonl"), "-stream-metrics", path("live-metrics.jsonl"),
		"-stream-every", "1ms")
	var out slowWriter
	var errw syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(obsArgs, &out, &errw) }()

	// The bound address is printed to stderr before the run starts.
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("no introspection address in stderr:\n%s", errw.String())
		}
		if s := errw.String(); strings.Contains(s, "endpoint on http://") {
			s = s[strings.Index(s, "endpoint on http://")+len("endpoint on http://"):]
			addr = strings.TrimSpace(strings.SplitN(s, "\n", 2)[0])
		} else {
			time.Sleep(time.Millisecond)
		}
	}

	get := func(route string) (string, bool) {
		resp, err := http.Get("http://" + addr + route)
		if err != nil {
			return "", false
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err == nil && resp.StatusCode == http.StatusOK
	}
	var metrics, status string
	seen := false
	code := -1
	for code == -1 && !seen {
		select {
		case code = <-done:
			continue
		default:
		}
		m, ok1 := get("/metrics")
		s, ok2 := get("/status")
		if !ok1 || !ok2 {
			time.Sleep(time.Millisecond)
			continue
		}
		metrics, status = m, s
		var doc struct {
			SchedDispatch uint64 `json:"sched_dispatch"`
			SimNowPS      int64  `json:"sim_now_ps"`
		}
		if err := json.Unmarshal([]byte(status), &doc); err != nil {
			t.Fatalf("/status is not JSON: %v\n%s", err, status)
		}
		seen = runCyclesRe.MatchString(metrics) && dispatchRe.MatchString(metrics) &&
			doc.SchedDispatch > 0 && doc.SimNowPS > 0
	}
	if code == -1 {
		code = <-done
	}
	if code != exitOK {
		t.Fatalf("obs run exited %d, stderr:\n%s", code, errw.String())
	}
	if !seen {
		t.Fatalf("no mid-run scrape saw a non-zero ev_run_sw_evsim_cycles and dispatch count; last /metrics:\n%s\nlast /status:\n%s",
			firstLines(metrics, 40), status)
	}

	if !bytes.Equal(plain.Bytes(), out.Bytes()) {
		t.Errorf("stdout differs with the observability plane on:\n--- plain ---\n%s\n--- obs ---\n%s",
			firstLines(plain.String(), 20), firstLines(out.String(), 20))
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, pair := range [][2]string{{"plain.jsonl", "obs.jsonl"}, {"plain.json", "obs.json"}} {
		if !bytes.Equal(read(pair[0]), read(pair[1])) {
			t.Errorf("%s differs from %s", pair[1], pair[0])
		}
	}

	var m struct {
		Runs []struct {
			TraceDropped uint64 `json:"trace_dropped"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(read("plain.json"), &m); err != nil || len(m.Runs) != 1 {
		t.Fatalf("metrics document: %v", err)
	}
	if m.Runs[0].TraceDropped != 0 {
		t.Fatalf("a trace ring wrapped (%d records dropped); the streamed and post-run traces are not comparable", m.Runs[0].TraceDropped)
	}
	lines := func(name string) []string {
		ls := strings.Split(strings.TrimSuffix(string(read(name)), "\n"), "\n")
		slices.Sort(ls)
		return ls
	}
	streamed, post := lines("live.jsonl"), lines("plain.jsonl")
	if len(post) < 2 {
		t.Fatalf("post-run trace has %d lines; the scenario emitted nothing", len(post))
	}
	if !slices.Equal(streamed, post) {
		t.Errorf("streamed trace holds %d lines, post-run %d; sorted, they differ", len(streamed), len(post))
	}
	if len(read("live-metrics.jsonl")) == 0 {
		t.Error("streamed metrics file is empty")
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
