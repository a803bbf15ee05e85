// Command evsim runs a single SUME Event Switch scenario and prints the
// switch's statistics: a quick way to poke at the simulator from the
// command line.
//
//	evsim -arch event -load 0.9 -size 576 -ms 10
//	evsim -arch baseline -overspeed 1.0 -load 1.0
//	evsim -p4 program.up4 -ms 5
//	evsim -p4 program.up4 -interp    # interpreter oracle instead of compiled closures
//	evsim -ms 10 -checkpoint-every 1ms -checkpoint run.ckpt
//	evsim -ms 10 -checkpoint-every 1ms -resume run.ckpt
//	evsim -ms 10 -http 127.0.0.1:9100   # /metrics, /status, /debug/pprof
//	evsim -ms 10 -stream-trace t.jsonl -stream-metrics m.jsonl -stream-every 250ms
//	evsim -ms 10 -tracefile t.jsonl -metrics m.json
//
// With -p4, the given µP4 program is compiled and loaded instead of the
// built-in port-pairing forwarder (ports are paired 0<->1, 2<->3 there).
// -interp executes it with the tree-walking interpreter instead of the
// specialized Go closures; the observable behaviour is identical.
//
// -checkpoint-every writes a checkpoint to the -checkpoint file at a fixed
// simulated-time cadence (atomically: a crash mid-write leaves the
// previous checkpoint intact). A checkpoint is one fixed-size record: the
// cut instant and a fingerprint of the state there. The run is
// deterministic, so -resume rebuilds it from the same flags and replays
// it from t=0, verifying the fingerprint when it reaches the cut: every
// output (statistics, -trace lines, trace, metrics and stream files) is
// byte-identical to the uninterrupted run's by construction. A resume
// must use the same flags as the run that wrote the checkpoint — the
// record carries a config digest and mismatches are refused; a replay
// that diverges at the cut, or never reaches it, fails (DESIGN.md §13).
//
// -tracefile writes the event-lifecycle trace and -metrics the telemetry
// metrics document after the run. Traces are JSON lines whatever the
// file's suffix, streamed or not; cmd/tracecheck converts one for
// Perfetto.
//
// -http serves a read-only introspection endpoint while the run is in
// flight: Prometheus-text self-metrics and the latest deterministic
// snapshot on /metrics, a JSON progress document on /status, and the
// standard pprof handlers under /debug/pprof. -stream-trace writes the
// whole event-lifecycle trace while the run executes: a trace ring that
// fills spills its records to the file before it overwrites one, so the
// file holds every record, per stream in emission order, and its bytes
// depend only on the run. -stream-metrics writes metrics-document lines.
// The run advances in fixed chunks of simulated time; at the first chunk
// boundary after each -stream-every of wall time, the simulating
// goroutine writes a metrics line, flushes the stream files and publishes
// the registry snapshot the endpoint serves, so no reader ever touches an
// instrument the switch is writing. The whole observability plane is
// observation-only: statistics, telemetry exports, digests, and
// checkpoints are byte-identical with it on or off (DESIGN.md §15).
//
// Exit codes: 0 on success, 1 on runtime failure (unreadable files,
// compile errors, write failures, a replay that fails its checkpoint), 2
// on usage errors (bad flags, a checkpoint written under other flags).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
	"repro/internal/workload"
)

// Exit codes: the crash-injection harness and CI scripts tell a crashed
// run (signal / exit 1) from a misused one (exit 2).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// usageError marks an error as operator misuse (exit 2) rather than a
// runtime failure (exit 1).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// behaviour is every setting that changes what the simulation does,
// resolved and validated. digest hashes the struct whole, so a setting
// added here pins checkpoints without being listed anywhere else.
// The checkpoint cadence is not one: it only says where the run loop
// stops to write a record.
type behaviour struct {
	archName  string
	load      float64
	size      int
	ms        int
	overspeed float64
	ports     int
	gbps      int64
	p4src     string // program source (content, not path)
	interp    bool
	seed      uint64
}

// config is the resolved command line: the run's behaviour plus where its
// output lands. The fields outside behaviour change no simulated result
// and stay out of the digest — except that asking for any telemetry
// output changes the construction path (telemetryOn).
type config struct {
	behaviour

	p4file    string // where p4src was read from
	trace     int
	traceFile string
	metrics   string
	ckptEvery sim.Time
	ckptPath  string
	resume    string

	// Observability plane: read-only, so none of these affect simulation
	// behaviour — but streaming needs a collector, so the stream paths
	// participate in telemetryOn (and through it the config digest).
	httpAddr      string
	streamTrace   string
	streamMetrics string
	streamEvery   time.Duration
}

func (c *config) telemetryOn() bool {
	return c.traceFile != "" || c.metrics != "" || c.streaming()
}

func (c *config) streaming() bool { return c.streamTrace != "" || c.streamMetrics != "" }

func (c *config) obsOn() bool { return c.httpAddr != "" || c.streaming() }

// digest fingerprints the behaviour-affecting configuration: the
// behaviour struct (%#v names every field and quotes strings, so no two
// configurations print alike), and whether telemetry is enabled at all,
// because enabling it changes the construction path (the sampler ticker
// draws an event sequence number).
func (c *config) digest() uint64 {
	return Digest("evsim", fmt.Sprintf("%#v", c.behaviour), fmt.Sprint(c.telemetryOn()))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("evsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	arch := fs.String("arch", "event", "architecture: event | baseline")
	load := fs.Float64("load", 0.9, "offered load per port (1.0 = line rate; (0, 16])")
	size := fs.Int("size", 60, "frame size in bytes (60..1514)")
	ms := fs.Int("ms", 10, "simulated milliseconds")
	overspeed := fs.Float64("overspeed", 1.1, "pipeline overspeed factor (> 0)")
	ports := fs.Int("ports", 4, "switch ports (1..256)")
	rate := fs.Int64("gbps", 10, "per-port line rate in Gb/s (1..1000)")
	p4file := fs.String("p4", "", "µP4 program to load (default: built-in forwarder)")
	interp := fs.Bool("interp", false,
		"run the -p4 program under the interpreter instead of compiled closures")
	seed := fs.Uint64("seed", 1, "workload RNG seed")
	trace := fs.Int("trace", 0, "print the first N pipeline slots")
	traceFile := fs.String("tracefile", "",
		"write the event-lifecycle trace to `file` as JSON lines (cmd/tracecheck converts it for Perfetto)")
	metricsFile := fs.String("metrics", "", "write the telemetry metrics document to `file`")
	ckptEvery := fs.String("checkpoint-every", "",
		"write a checkpoint every simulated `interval` (e.g. 500us, 2ms; empty = off)")
	ckptPath := fs.String("checkpoint", "", "checkpoint `file` (required with -checkpoint-every)")
	resume := fs.String("resume", "", "resume from checkpoint `file` instead of starting fresh")
	httpAddr := fs.String("http", "",
		"serve the introspection endpoint (/metrics, /status, /debug/pprof) on `addr`")
	streamTrace := fs.String("stream-trace", "",
		"stream trace records incrementally to `file` as JSON lines during the run")
	streamMetrics := fs.String("stream-metrics", "",
		"stream one metrics-document line per flush to `file` during the run")
	streamEvery := fs.Duration("stream-every", 500*time.Millisecond,
		"wall-clock period between -stream-metrics lines, stream file flushes and -http snapshot updates")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}

	cfg := &config{
		behaviour: behaviour{
			archName: *arch, load: *load, size: *size, ms: *ms,
			overspeed: *overspeed, ports: *ports, gbps: *rate,
			interp: *interp, seed: *seed,
		},
		p4file: *p4file, trace: *trace,
		traceFile: *traceFile, metrics: *metricsFile,
		ckptPath: *ckptPath, resume: *resume,
		httpAddr: *httpAddr, streamTrace: *streamTrace,
		streamMetrics: *streamMetrics, streamEvery: *streamEvery,
	}
	err := finishConfig(cfg, *ckptEvery)
	if err == nil {
		err = simulate(cfg, out, errw)
	}
	if err != nil {
		fmt.Fprintf(errw, "evsim: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return exitUsage
		}
		return exitRuntime
	}
	return exitOK
}

// finishConfig validates flag values, loads the µP4 source, and parses
// the checkpoint cadence.
func finishConfig(cfg *config, every string) error {
	switch cfg.archName {
	case "event", "baseline":
	default:
		return usagef("unknown arch %q (want event or baseline)", cfg.archName)
	}
	if cfg.ms <= 0 {
		return usagef("-ms must be positive, got %d", cfg.ms)
	}
	// -ports, -gbps and -load multiply the packet rate and nothing stops
	// a run once it has started: 100000 ports or Gb/s, or a load of 1e9,
	// never reported back. Each upper bound alone costs seconds per
	// simulated millisecond (3.5 s, 2.5 s, 0.5 s on 2 CPUs) and is past
	// any real switch; their product is the operator's to choose.
	if cfg.ports <= 0 || cfg.ports > 256 {
		return usagef("-ports must be in 1..256, got %d", cfg.ports)
	}
	if cfg.gbps <= 0 || cfg.gbps > 1000 {
		return usagef("-gbps must be in 1..1000, got %d", cfg.gbps)
	}
	// 0 is out: the generator reads a zero load as line rate.
	if !(cfg.load > 0 && cfg.load <= 16) { // written so NaN fails
		return usagef("-load must be in (0, 16], got %v", cfg.load)
	}
	if cfg.size < 60 || cfg.size > 1514 {
		return usagef("-size must be in 60..1514, got %d", cfg.size)
	}
	if !(cfg.overspeed > 0) || math.IsInf(cfg.overspeed, 0) {
		return usagef("-overspeed must be positive and finite, got %v", cfg.overspeed)
	}
	if cfg.p4file != "" {
		src, err := os.ReadFile(cfg.p4file)
		if err != nil {
			return fmt.Errorf("reading -p4 program: %w", err)
		}
		cfg.p4src = string(src)
	}
	if every != "" {
		d, err := time.ParseDuration(every)
		if err != nil || d <= 0 {
			return usagef("bad -checkpoint-every %q (want a positive duration like 500us or 2ms)", every)
		}
		cfg.ckptEvery = sim.Time(d.Nanoseconds()) * sim.Nanosecond
	}
	if cfg.ckptEvery > 0 && cfg.ckptPath == "" && cfg.resume == "" {
		return usagef("-checkpoint-every needs -checkpoint (where to write)")
	}
	if cfg.ckptPath == "" {
		// Resuming keeps checkpointing into the same file by default.
		cfg.ckptPath = cfg.resume
	}
	return nil
}

// simState is one built simulation. build is the one deterministic
// construction path, shared by fresh starts and resumes (DESIGN.md §13).
type simState struct {
	cfg   *config
	sched *sim.Scheduler
	arch  *core.Arch
	sw    *core.Switch
	inst  *p4.Instance
	tel   *telemetry.Collector
	gens  []*workload.Gen
}

func build(cfg *config, out io.Writer) (*simState, error) {
	st := &simState{cfg: cfg, sched: sim.NewScheduler()}
	if cfg.obsOn() {
		// Before core.New: the switch and its pool take the plane from
		// the scheduler once, at construction.
		st.sched.SetSelf(new(self.Plane))
	}
	switch cfg.archName {
	case "event":
		st.arch = core.EventDriven()
	case "baseline":
		st.arch = core.Baseline()
	}
	swCfg := core.Config{
		Name:      "evsim",
		Ports:     cfg.ports,
		LineRate:  sim.Rate(cfg.gbps) * sim.Gbps,
		Overspeed: cfg.overspeed,
	}
	st.sw = core.New(swCfg, st.arch, st.sched)

	var prog *pisa.Program
	if cfg.p4src != "" {
		compiled, err := p4.Compile(cfg.p4src)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", cfg.p4file, err)
		}
		st.inst = compiled.Instantiate(cfg.p4file, p4.Options{Interpret: cfg.interp})
		prog = st.inst.Program()
		backend := "compiled"
		if st.inst.Interpreted() {
			backend = "interp"
		}
		fmt.Fprintf(out, "loaded %s (controls: %v, backend: %s)\n", cfg.p4file, compiled.Controls(), backend)
		for _, h := range compiled.Analyze() {
			fmt.Fprintf(out, "analysis note: %v\n", h)
		}
	} else {
		prog = pisa.NewProgram("forwarder")
		prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
			ctx.EgressPort = ctx.Pkt.InPort ^ 1
		})
		if st.arch.Supports(events.BufferEnqueue) {
			occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
				events.BufferEnqueue, events.BufferDequeue))
			prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
				occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
			})
			prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
				occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
			})
		}
	}
	if err := st.sw.Load(prog); err != nil {
		return nil, fmt.Errorf("loading program: %w", err)
	}
	if cfg.telemetryOn() {
		st.tel = telemetry.New(telemetry.Options{
			TraceCap:     telemetry.DefaultTraceCap,
			SamplePeriod: telemetry.DefaultSamplePeriod,
		})
		st.sw.EnableTelemetry(st.tel)
	}
	if cfg.trace > 0 {
		remaining := cfg.trace
		st.sw.OnSlot = func(info core.SlotInfo) {
			if remaining <= 0 {
				return
			}
			remaining--
			kind := info.PktKind.String()
			if info.Empty {
				kind = "EmptyPacket"
			}
			fmt.Fprintf(out, "cycle=%-8d t=%-12v slot=%-18s len=%-5d events=%v\n",
				info.Cycle, info.At, kind, info.PktLen, info.Events)
		}
	}

	horizon := sim.Time(cfg.ms) * sim.Millisecond
	rng := sim.NewRNG(cfg.seed)
	for port := 0; port < cfg.ports; port++ {
		port := port
		g := workload.NewGen(st.sched, rng.Split(), func(d []byte) { st.sw.Inject(port, d) })
		fl := packet.Flow{
			Src: packet.IP4(10, byte(port), 0, 1), Dst: packet.IP4(10, byte(port^1), 0, 1),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoUDP,
		}
		g.StartSaturate(workload.SaturateConfig{
			Flow: fl, Rate: sim.Rate(cfg.gbps) * sim.Gbps,
			Load: cfg.load, Size: cfg.size, Until: horizon,
		})
		st.gens = append(st.gens, g)
	}
	return st, nil
}

// runChunk is the simulated span of one Scheduler.Run call. Between two
// chunks the simulating goroutine may flush the stream sink and publish
// the endpoint's snapshot. Splitting the horizon moves no event: Run only
// fires events up to its bound and leaves the clock there.
const runChunk = 100 * sim.Microsecond

func simulate(cfg *config, out, errw io.Writer) error {
	horizon := sim.Time(cfg.ms) * sim.Millisecond
	var resume *record
	if cfg.resume != "" {
		rec, err := readRecord(cfg.resume)
		if err != nil {
			return err
		}
		if rec.digest != cfg.digest() {
			return usagef("checkpoint %s was written under different flags (config digest %#x, these flags %#x); "+
				"resume with the same configuration", cfg.resume, rec.digest, cfg.digest())
		}
		resume = &rec
	}
	st, err := build(cfg, out)
	if err != nil {
		return err
	}
	cut := &cutter{st: st, errw: errw, every: cfg.ckptEvery, next: cfg.ckptEvery, path: cfg.ckptPath,
		resume: resume, resumePath: cfg.resume}

	// Observability plane: strictly read-only — stats, telemetry exports,
	// and checkpoints are byte-identical with it on or off. The endpoint
	// serves only the snapshots the run loop below stores, never the
	// collector itself.
	var published atomic.Pointer[[]obs.Run]
	if cfg.httpAddr != "" {
		srv, err := obs.Serve(obs.Options{
			Addr: cfg.httpAddr,
			Self: st.sched.Self(),
			Runs: func() []obs.Run {
				if runs := published.Load(); runs != nil {
					return *runs
				}
				return nil
			},
			Status: func() map[string]any {
				return map[string]any{
					"binary":        "evsim",
					"arch":          cfg.archName,
					"config_digest": fmt.Sprintf("%#x", cfg.digest()),
					"horizon_ps":    int64(horizon),
				}
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(errw, "evsim: introspection endpoint on http://%s\n", srv.Addr())
	}
	var sink *telemetry.StreamSink
	if cfg.streaming() {
		var err error
		sink, err = telemetry.NewStreamSink(telemetry.StreamOptions{
			TracePath:   cfg.streamTrace,
			MetricsPath: cfg.streamMetrics,
			Self:        st.sched.Self(),
		})
		if err != nil {
			return err
		}
		sink.Attach("evsim", st.tel)
	}

	end := horizon + 2*sim.Millisecond
	last := time.Now()
	for t := sim.Time(0); t < end; {
		t = min(t+runChunk, end)
		for stop := cut.nextStop(); stop <= t; stop = cut.nextStop() {
			st.sched.Run(stop)
			if err := cut.at(stop); err != nil {
				if sink != nil {
					sink.Close()
				}
				return err
			}
		}
		st.sched.Run(t)
		if !cfg.obsOn() || time.Since(last) < cfg.streamEvery {
			continue
		}
		// Between two chunks the switch is not running, so reading its
		// instruments here races nothing.
		last = time.Now()
		if p := st.sched.Self(); p != nil {
			p.SimNowPS.Set(int64(t))
		}
		if cfg.httpAddr != "" && st.tel != nil {
			runs := []obs.Run{{Label: "evsim", Metrics: st.tel.Registry().Snapshot()}}
			published.Store(&runs)
		}
		if sink != nil && sink.Flush() != nil {
			break // the error sticks; sink.Close below reports it
		}
	}
	if err := cut.unreached(); err != nil {
		return err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return fmt.Errorf("closing stream sink: %w", err)
		}
		if cfg.streamTrace != "" {
			fmt.Fprintf(errw, "evsim: streamed %s\n", cfg.streamTrace)
		}
		if cfg.streamMetrics != "" {
			fmt.Fprintf(errw, "evsim: streamed %s\n", cfg.streamMetrics)
		}
	}

	if st.tel != nil {
		runs := []telemetry.RunExport{{Label: "evsim", C: st.tel}}
		if cfg.traceFile != "" {
			if err := telemetry.WriteJSONL(cfg.traceFile, runs); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
			fmt.Fprintf(errw, "evsim: wrote trace %s\n", cfg.traceFile)
		}
		if cfg.metrics != "" {
			if err := telemetry.WriteMetrics(cfg.metrics, runs); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
			fmt.Fprintf(errw, "evsim: wrote metrics %s\n", cfg.metrics)
		}
	}

	stats := st.sw.Stats()
	fmt.Fprintf(out, "arch=%s cycleTime=%v horizon=%v\n", st.arch.Name, st.sw.CycleTime(), horizon)
	fmt.Fprintf(out, "rx=%d tx=%d (%.2f%% delivered) drops: pipeline=%d linkDown=%d\n",
		stats.RxPackets, stats.TxPackets,
		100*float64(stats.TxPackets)/float64(max(stats.RxPackets, 1)),
		stats.PipelineDrops, stats.TxDroppedLinkDown)
	fmt.Fprintf(out, "cycles=%d packetSlots=%d emptySlots=%d drainSlots=%d recirc=%d generated=%d\n",
		stats.Cycles, stats.PacketSlots, stats.EmptySlots, stats.DrainSlots, stats.Recirculated, stats.Generated)
	for k := 0; k < events.NumKinds; k++ {
		kind := events.Kind(k)
		if stats.EventsMerged[k] > 0 || stats.EventsDropped[k] > 0 {
			fmt.Fprintf(out, "  event %-22s merged=%-10d fifoDrops=%d\n",
				kind, stats.EventsMerged[k], stats.EventsDropped[k])
		}
	}
	return nil
}
