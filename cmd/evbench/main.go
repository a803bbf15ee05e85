// Command evbench regenerates the paper's tables and figures from the
// simulator. With no flags it runs every experiment; -exp selects one.
//
//	evbench                          # run everything
//	evbench -exp table3              # just the Table 3 reproduction
//	evbench -experiment resilience   # same flag, long spelling
//	evbench -list                    # list experiment ids
//	evbench -parallel 8              # 8 worker goroutines per experiment
//	evbench -domains 4               # split topologies across 4 partition domains
//	evbench -cpuprofile cpu.pprof    # write a CPU profile
//	evbench -memprofile mem.pprof    # write an allocation profile
//	evbench -exp hula -trace t.json -metrics m.json
//	                                 # telemetry: lifecycle trace + metrics export
//	evbench -exp scale -resume scale.journal
//	                                 # campaign resumption: completed trials are
//	                                 # journaled and skipped on the next run
//	evbench -exp scale -http 127.0.0.1:9100
//	                                 # live introspection: /metrics (Prometheus),
//	                                 # /status (JSON), /debug/pprof
//	evbench -exp hula -stream-trace live.jsonl -stream-metrics live-metrics.jsonl
//	                                 # stream telemetry to disk during the run
//	evbench -blockprofile b.pprof -mutexprofile m.pprof
//	                                 # runtime contention profiles
//
// The observability plane (-http, -stream-*) is read-only: tables and
// trace/metrics exports are byte-identical with it on or off, at every
// -parallel and -domains setting.
//
// -trace writes the event-lifecycle trace (Chrome/Perfetto trace-event
// JSON, or JSON lines when the file ends in .jsonl); -metrics writes the
// metrics registry document. Both need -exp (one experiment per export)
// and work for the instrumented experiments (staleness, hula, scale).
//
// -resume names a trial journal (one per experiment): every completed
// trial is appended as it finishes, and a rerun after a crash loads the
// recorded results instead of recomputing them, producing byte-identical
// tables. It needs -exp and composes with -parallel/-domains; it does
// not compose with -trace/-metrics (telemetry is recorded while trials
// execute, so skipped trials would leave holes in the export).
//
// Output is identical for every -parallel and -domains value: trials are
// distributed across workers but result rows are emitted in trial order,
// and partitioned topologies execute byte-identically to single-threaded.
// That extends to telemetry: trace and metrics files are byte-identical
// at any -parallel and -domains setting.
//
// Exit codes: 0 on success, 1 on runtime failure (profile or export
// write errors), 2 on usage errors (unknown experiment, invalid flag
// combinations).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	exp := fs.String("exp", "", "experiment id to run (default: all)")
	fs.StringVar(exp, "experiment", "", "alias for -exp")
	list := fs.Bool("list", false, "list experiment ids and exit")
	par := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for experiment trials (0 = GOMAXPROCS)")
	domains := fs.Int("domains", 1,
		"partition domains for topology experiments (intra-trial parallelism)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write allocation profile to `file`")
	blockprofile := fs.String("blockprofile", "", "write goroutine blocking profile to `file`")
	mutexprofile := fs.String("mutexprofile", "", "write mutex contention profile to `file`")
	httpAddr := fs.String("http", "",
		"serve the introspection endpoint (/metrics, /status, /debug/pprof) on `addr`")
	streamTrace := fs.String("stream-trace", "",
		"stream trace records incrementally to `file` during the run (.json/.trace = Chrome array, else JSONL); needs -exp")
	streamMetrics := fs.String("stream-metrics", "",
		"stream one metrics-document line per flush to `file` during the run; needs -exp")
	streamEvery := fs.Duration("stream-every", 500*time.Millisecond,
		"wall-clock flush period for -stream-trace/-stream-metrics")
	traceFile := fs.String("trace", "",
		"write the event-lifecycle trace to `file` (.jsonl = JSON lines, else Chrome JSON); needs -exp")
	metricsFile := fs.String("metrics", "",
		"write the telemetry metrics document to `file`; needs -exp")
	resume := fs.String("resume", "",
		"journal completed trials in `file` and skip them on rerun; needs -exp")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(out, "%-12s %s\n", e.ID, e.Paper)
		}
		return exitOK
	}

	if *domains < 1 {
		fmt.Fprintf(errw, "evbench: -domains must be a positive integer (got %d)\n", *domains)
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(errw, "evbench: %v\n", err)
		return exitRuntime
	}
	// Everything this run sets lives in env; nothing outlasts run().
	env := &bench.Env{Parallelism: *par, Domains: *domains}

	streaming := *streamTrace != "" || *streamMetrics != ""
	telemetryOn := *traceFile != "" || *metricsFile != "" || streaming
	if telemetryOn && *exp == "" {
		fmt.Fprintln(errw, "evbench: -trace/-metrics/-stream-* need -exp (one experiment per export)")
		return exitUsage
	}
	if *resume != "" && *exp == "" {
		fmt.Fprintln(errw, "evbench: -resume needs -exp (one experiment per journal)")
		return exitUsage
	}
	if *resume != "" && telemetryOn {
		fmt.Fprintln(errw, "evbench: -resume does not compose with -trace/-metrics (skipped trials record no telemetry)")
		return exitUsage
	}
	var todo []bench.Experiment
	if *exp != "" {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(errw, "evbench: unknown experiment %q (try -list)\n", *exp)
			return exitUsage
		}
		todo = []bench.Experiment{e}
	} else {
		todo = bench.All()
	}

	// The observability plane (self-metrics, live collectors, HTTP
	// endpoint, streaming sink) is observation-only: turning any of it on
	// never changes a byte of tables, digests, or trace files (pinned by
	// TestObsStreamingIdentical / TestObsSmoke).
	if *httpAddr != "" || streaming {
		env.Self = new(self.Plane)
	}
	if telemetryOn {
		env.Telemetry = &telemetry.Options{
			TraceCap:     telemetry.DefaultTraceCap,
			SamplePeriod: telemetry.DefaultSamplePeriod,
		}
	}

	var srv *obs.Server
	if *httpAddr != "" {
		var err error
		srv, err = obs.Serve(obs.Options{
			Addr: *httpAddr,
			Self: env.Self,
			Runs: env.TelemetryRuns,
			Status: func() map[string]any {
				return map[string]any{
					"binary":   "evbench",
					"exp":      *exp,
					"parallel": *par,
					"pdomains": strconv.Itoa(*domains),
				}
			},
		})
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(errw, "evbench: introspection endpoint on http://%s\n", srv.Addr())
	}

	if streaming {
		var err error
		env.Sink, err = telemetry.NewStreamSink(telemetry.StreamOptions{
			TracePath:   *streamTrace,
			MetricsPath: *streamMetrics,
			Interval:    *streamEvery,
			Self:        env.Self,
		})
		if err != nil {
			return fail(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	if *resume != "" {
		j, err := bench.OpenJournal(*resume, *exp, *domains)
		if err != nil {
			return fail(err)
		}
		env.Journal = j
		defer func() {
			if hits := j.Hits(); hits > 0 {
				fmt.Fprintf(errw, "evbench: %d trial(s) loaded from %s\n", hits, *resume)
			}
			j.Close()
		}()
	}

	for _, e := range todo {
		fmt.Fprintln(out, e.Run(env).String())
	}

	if env.Sink != nil {
		// Final flush before the post-run exports, so the streamed files
		// cover every record and close cleanly (Chrome array terminator).
		if err := env.Sink.Close(); err != nil {
			return fail(err)
		}
		if *streamTrace != "" {
			fmt.Fprintf(errw, "evbench: streamed %s\n", *streamTrace)
		}
		if *streamMetrics != "" {
			fmt.Fprintf(errw, "evbench: streamed %s\n", *streamMetrics)
		}
	}

	if *traceFile != "" {
		if err := env.WriteTrace(*traceFile); err != nil {
			return fail(err)
		}
		fmt.Fprintf(errw, "evbench: wrote %s\n", *traceFile)
	}
	if *metricsFile != "" {
		if err := env.WriteMetrics(*metricsFile); err != nil {
			return fail(err)
		}
		fmt.Fprintf(errw, "evbench: wrote %s\n", *metricsFile)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		// A final GC before the heap profile so the allocation picture
		// shows live retention, not garbage awaiting collection.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	if err := writeLookupProfile("block", *blockprofile); err != nil {
		return fail(err)
	}
	if err := writeLookupProfile("mutex", *mutexprofile); err != nil {
		return fail(err)
	}
	return exitOK
}

// writeLookupProfile writes a named runtime profile (block, mutex) to
// path; a no-op when path is empty.
func writeLookupProfile(name, path string) error {
	if path == "" {
		return nil
	}
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.WriteTo(f, 0)
}
