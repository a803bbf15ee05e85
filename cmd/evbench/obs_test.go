package main

import (
	"bytes"
	"io"
	"net/http"
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
	dispatchRe = regexp.MustCompile(`ev_self_sched_dispatch [1-9]`)
)

// TestObsSmoke drives the observability plane end to end, hermetic
// in-process: run the scale experiment with -http on an ephemeral port,
// scrape /metrics live while trials execute until the barrier-stall and
// scheduler-dispatch self-metrics go non-zero, and then check the table
// output is byte-identical to a plain run. This is the cmd-level
// counterpart of bench.TestSelfPlaneIdentical.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale experiment twice; bench.TestSelfPlaneIdentical is its raced harness-level twin")
	}
	base := []string{"-exp", "scale", "-parallel", "8", "-domains", "2"}
	var plain bytes.Buffer
	if code := run(base, &plain, io.Discard); code != exitOK {
		t.Fatalf("plain run exited %d", code)
	}

	args := append(append([]string{}, base...), "-http", "127.0.0.1:0")

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

	// Scrape live until the partition barrier-stall and scheduler-dispatch
	// self-metrics are non-zero: proof the engine is exporting real
	// signal mid-run, not a post-hoc summary.
	var lastBody string
	sawStall, sawDispatch := false, false
	running := true
	code := -1
	for running && !(sawStall && sawDispatch) {
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
		sawDispatch = sawDispatch || dispatchRe.MatchString(lastBody)
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
	if !sawDispatch {
		t.Errorf("no live scrape saw a non-zero scheduler-dispatch count; last scrape:\n%s", firstLines(lastBody, 40))
	}
	if lastBody == "" {
		t.Error("never completed a live /metrics scrape")
	}

	if !bytes.Equal(plain.Bytes(), obsOut.Bytes()) {
		t.Errorf("table output differs with observability plane on:\n--- plain ---\n%s\n--- obs ---\n%s",
			plain.String(), obsOut.String())
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
