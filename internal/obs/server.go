// Package obs is the simulator's HTTP introspection endpoint: a
// read-only management plane (modeled on ndn-dpdk's ndndpdk-svc) that
// serves the engine's wall-clock self-metrics and the latest
// deterministic telemetry snapshot while a run executes.
//
// Three routes:
//
//	/metrics      — Prometheus text format: every internal/telemetry/self
//	                instrument (ev_self_*) plus the most recent
//	                deterministic registry snapshots (ev_run_*, labelled
//	                by run).
//	/status       — one JSON object: sim-time progress, windows and
//	                barrier stalls per domain, trial progress, last
//	                checkpoint, and host-supplied fields (config digest).
//	/debug/pprof  — net/http/pprof.
//
// The server only ever reads: self-metrics are the atomics of the plane
// the host hands it (Options.Self, the one its schedulers record into),
// and deterministic snapshots come from the host's Runs callback, which
// returns registry snapshots the simulating goroutine published between
// two scheduler runs — never a collector whose instruments are being
// written. Nothing served here feeds back into the simulation, so
// byte-identity of all deterministic outputs with the server on vs off
// is a structural property, pinned by the obs tests.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

// Options configures Serve.
type Options struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Self is the run's self-metrics plane, served as ev_self_*; nil
	// serves an empty one.
	Self *self.Plane
	// Runs returns the deterministic registry snapshots to expose under
	// /metrics, in the order they are served. May be nil; called per
	// scrape, so it should return the latest published snapshots
	// cheaply, and the server does not modify them.
	Runs func() []Run
	// Status returns host-specific fields merged into the /status
	// object (config digest, output paths, trial labels). May be nil.
	Status func() map[string]any
}

// Run is one labelled sim-time registry snapshot (telemetry's
// Registry.Snapshot), served as ev_run_* metrics labelled run="Label".
type Run struct {
	Label   string
	Metrics []telemetry.Metric
}

// Server is a running introspection endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	opts Options
}

// Serve starts the endpoint on opts.Addr. It returns once the listener
// is bound, so Addr is final.
func Serve(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if opts.Self == nil {
		opts.Self = new(self.Plane)
	}
	s := &Server{ln: ln, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// promName sanitizes a dotted metric name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the Prometheus text format.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// writeSample writes one instrument in the Prometheus text format.
// labels is the sample's label list without braces ("" for none); a
// histogram's buckets add le to it.
func writeSample(b *strings.Builder, name, labels, kind string, value int64,
	count, sum uint64, buckets []self.HistBucket) {
	set := ""
	if labels != "" {
		set = "{" + labels + "}"
		labels += ","
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, kind)
	if kind != "histogram" {
		fmt.Fprintf(b, "%s%s %d\n", name, set, value)
		return
	}
	var cum uint64
	for _, bk := range buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket{%sle=\"%d\"} %d\n", name, labels, bk.High, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, count)
	fmt.Fprintf(b, "%s_sum%s %d\n%s_count%s %d\n", name, set, sum, name, set, count)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.opts.Self.Scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, sm := range s.opts.Self.Snapshot() {
		// self.domain3.windows -> ev_self_domain3_windows etc.
		writeSample(&b, "ev_"+promName(sm.Name), "", sm.Kind, sm.Value, sm.Count, sm.Sum, sm.Buckets)
	}
	if s.opts.Runs != nil {
		for _, run := range s.opts.Runs() {
			label := fmt.Sprintf("run=\"%s\"", promLabel(run.Label))
			for _, m := range run.Metrics {
				writeSample(&b, "ev_run_"+promName(m.Name), label, m.Type, m.Value, m.Count, m.Sum, m.Buckets)
			}
		}
	}
	w.Write([]byte(b.String()))
}

// domainStatus is one domain's row in /status.
type domainStatus struct {
	Domain         int    `json:"domain"`
	Windows        uint64 `json:"windows"`
	BarrierStallNS uint64 `json:"barrier_stall_ns"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	p := s.opts.Self
	doc := map[string]any{
		"sim_now_ps":              p.SimNowPS.Value(),
		"domains":                 p.Domains(),
		"sched_dispatch":          p.SchedDispatch.Value(),
		"trials_done":             p.TrialsDone.Value(),
		"trials_total":            p.TrialsTotal.Value(),
		"pool_in_use":             p.PoolInUse.Cur(),
		"pool_high_water":         p.PoolInUse.High(),
		"stream_flushes":          p.StreamFlushes.Value(),
		"stream_records":          p.StreamRecords.Value(),
		"checkpoint_writes":       p.CheckpointWriteNS.Count(),
		"checkpoint_last_unix_ns": p.CheckpointLastUnixNS.Value(),
	}
	var doms []domainStatus
	for d := 0; d < p.Domains() && d < self.MaxDomains; d++ {
		doms = append(doms, domainStatus{
			Domain:         d,
			Windows:        p.DomainWindows(d).Value(),
			BarrierStallNS: p.DomainStallNS(d).Value(),
		})
	}
	doc["domain_status"] = doms
	if s.opts.Status != nil {
		for k, v := range s.opts.Status() {
			doc[k] = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
