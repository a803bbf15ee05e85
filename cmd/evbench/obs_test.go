package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read evbench's stderr while the run goroutine
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

var (
	stallRe    = regexp.MustCompile(`ev_self_domain[0-9]+_barrier_stall_ns [1-9]`)
	burstOccRe = regexp.MustCompile(`ev_self_burst_slots_per_dispatch_count [1-9]`)
)

// TestObsSmoke drives the full observability plane end to end, hermetic
// in-process: run the scale experiment with -http on an ephemeral port
// plus streaming, scrape /metrics live while trials execute until the
// barrier-stall and burst-occupancy self-metrics go non-zero, and then
// check the table output is byte-identical to a plain run. This is the
// cmd-level counterpart of bench.TestObsStreamingIdentical.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale experiment twice; bench.TestObsStreamingIdentical is its raced harness-level twin")
	}
	base := []string{"-exp", "scale", "-parallel", "8", "-domains", "2"}
	var plain bytes.Buffer
	if code := run(base, &plain, io.Discard); code != exitOK {
		t.Fatalf("plain run exited %d", code)
	}

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "live.jsonl")
	metricsPath := filepath.Join(dir, "live-metrics.jsonl")
	args := append(append([]string{}, base...),
		"-http", "127.0.0.1:0",
		"-stream-trace", tracePath,
		"-stream-metrics", metricsPath,
		"-stream-every", "20ms")

	var obsOut bytes.Buffer
	var errw syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(args, &obsOut, &errw) }()

	// The bound address is printed to stderr before the experiment starts.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
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

	// Scrape live until the partition barrier-stall and burst-occupancy
	// self-metrics are non-zero: proof the engine is exporting real
	// signal mid-run, not a post-hoc summary.
	var lastBody string
	sawStall, sawBurst := false, false
	running := true
	code := -1
	for running && !(sawStall && sawBurst) {
		select {
		case code = <-done:
			running = false
		default:
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			if !running {
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		lastBody = string(b)
		sawStall = sawStall || stallRe.MatchString(lastBody)
		sawBurst = sawBurst || burstOccRe.MatchString(lastBody)
	}
	if running {
		code = <-done
	}
	if code != exitOK {
		t.Fatalf("obs run exited %d, stderr:\n%s", code, errw.String())
	}
	if !sawStall {
		t.Errorf("no live scrape saw a non-zero barrier-stall self-metric; last scrape:\n%s", firstLines(lastBody, 40))
	}
	if !sawBurst {
		t.Errorf("no live scrape saw a non-zero burst-occupancy count; last scrape:\n%s", firstLines(lastBody, 40))
	}
	if lastBody == "" {
		t.Error("never completed a live /metrics scrape")
	}

	if !bytes.Equal(plain.Bytes(), obsOut.Bytes()) {
		t.Errorf("table output differs with observability plane on:\n--- plain ---\n%s\n--- obs ---\n%s",
			plain.String(), obsOut.String())
	}
	for _, p := range []string{tracePath, metricsPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("streamed file missing: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("streamed file %s is empty", p)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
