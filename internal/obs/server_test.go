package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	plane := new(self.Plane)
	plane.SetDomains(2)
	plane.SchedDispatch.Add(123)
	plane.CheckpointWriteNS.Observe(4)
	plane.CheckpointWriteNS.Observe(9)
	plane.DomainWindows(0).Add(7)
	plane.DomainStallNS(1).Add(5500)
	plane.SimNowPS.Set(1_000_000)

	c := telemetry.New(telemetry.Options{})
	c.Registry().Counter("sw0.events").Add(42)
	c.Registry().Histogram("r0.lag").Observe(3)

	srv, err := Serve(Options{
		Addr: "127.0.0.1:0",
		Self: plane,
		Runs: func() []Run {
			return []Run{{Label: "trial \"0\"", Metrics: c.Registry().Snapshot()}}
		},
		Status: func() map[string]any { return map[string]any{"config_digest": "abc123"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body, ctype := get(t, base+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type %q", ctype)
	}
	for _, want := range []string{
		"ev_self_sched_dispatch 123",
		"# TYPE ev_self_checkpoint_write_ns histogram",
		"ev_self_checkpoint_write_ns_count 2",
		"ev_self_checkpoint_write_ns_sum 13",
		"ev_self_checkpoint_write_ns_bucket{le=\"7\"} 1\nev_self_checkpoint_write_ns_bucket{le=\"15\"} 2\n",
		"ev_self_domain0_windows 7",
		"ev_self_domain1_barrier_stall_ns 5500",
		"ev_self_sim_now_ps 1000000",
		`ev_run_sw0_events{run="trial \"0\""} 42`,
		`ev_run_r0_lag_bucket{run="trial \"0\"",le="3"} 1`,
		`ev_run_r0_lag_bucket{run="trial \"0\"",le="+Inf"} 1`,
		`ev_run_r0_lag_sum{run="trial \"0\""} 3`,
		"# TYPE ev_run_sw0_events counter\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The scrape itself was counted (this is the second scrape's view
	// only if we scrape again; check >= 1 via the self counter).
	if plane.Scrapes.Value() == 0 {
		t.Error("scrape not counted")
	}

	body, ctype = get(t, base+"/status")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("content type %q", ctype)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if doc["sim_now_ps"].(float64) != 1_000_000 {
		t.Errorf("sim_now_ps = %v", doc["sim_now_ps"])
	}
	if doc["config_digest"] != "abc123" {
		t.Errorf("host status field missing: %v", doc["config_digest"])
	}
	doms := doc["domain_status"].([]any)
	if len(doms) != 2 {
		t.Fatalf("domain_status has %d rows, want 2", len(doms))
	}
	d1 := doms[1].(map[string]any)
	if d1["barrier_stall_ns"].(float64) != 5500 {
		t.Errorf("domain 1 stall = %v", d1["barrier_stall_ns"])
	}

	body, _ = get(t, base+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}
