// Command evsim runs a single SUME Event Switch scenario and prints the
// switch's statistics: a quick way to poke at the simulator from the
// command line.
//
//	evsim -arch event -load 0.9 -size 576 -ms 10
//	evsim -arch baseline -overspeed 1.0 -load 1.0
//	evsim -p4 program.up4 -ms 5
//	evsim -p4 program.up4 -interp    # interpreter oracle instead of compiled closures
//	evsim -burst 0                   # per-packet datapath (burst differential oracle)
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
// -checkpoint-every writes a checkpoint of the full simulator state to
// the -checkpoint file at a fixed simulated-time cadence (atomically: a
// crash mid-write leaves the previous checkpoint intact). -resume loads
// such a file and continues the run; the resumed run's statistics,
// telemetry metrics, and traces are byte-identical to the uninterrupted
// run's. A resume must use the same flags as the run that wrote the
// checkpoint — the file carries a config digest and mismatches are
// refused (see DESIGN.md §13).
//
// -tracefile writes the event-lifecycle trace and -metrics the telemetry
// metrics document after the run. Traces are JSON lines whatever the
// file's suffix, streamed or not; cmd/tracecheck converts one for
// Perfetto.
//
// -http serves a read-only introspection endpoint while the run is in
// flight: Prometheus-text self-metrics and the latest deterministic
// snapshot on /metrics, a JSON progress document on /status, and the
// standard pprof handlers under /debug/pprof. -stream-trace and
// -stream-metrics flush trace records and metrics-document lines to disk
// incrementally on a wall-clock cadence (-stream-every). The whole
// observability plane is observation-only: statistics, telemetry
// exports, digests, and checkpoints are byte-identical with it on or
// off (DESIGN.md §15).
//
// Exit codes: 0 on success, 1 on runtime failure (unreadable files,
// compile errors, write failures), 2 on usage errors (bad flags, a
// checkpoint that does not match the flags).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/checkpoint"
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
	burst     int
	seed      uint64
	ckptEvery sim.Time
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
	return checkpoint.Digest("evsim", fmt.Sprintf("%#v", c.behaviour), fmt.Sprint(c.telemetryOn()))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("evsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	arch := fs.String("arch", "event", "architecture: event | baseline")
	load := fs.Float64("load", 0.9, "offered load per port (1.0 = line rate; 0..16)")
	size := fs.Int("size", 60, "frame size in bytes (60..1514)")
	ms := fs.Int("ms", 10, "simulated milliseconds")
	overspeed := fs.Float64("overspeed", 1.1, "pipeline overspeed factor (> 0)")
	ports := fs.Int("ports", 4, "switch ports (1..256)")
	rate := fs.Int64("gbps", 10, "per-port line rate in Gb/s (1..1000)")
	p4file := fs.String("p4", "", "µP4 program to load (default: built-in forwarder)")
	interp := fs.Bool("interp", false,
		"run the -p4 program under the interpreter instead of compiled closures")
	burst := fs.Int("burst", -1,
		"0 = per-packet datapath, the burst engine's differential oracle (default: burst)")
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
		"wall-clock flush period for -stream-trace/-stream-metrics")
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
			interp: *interp, burst: *burst, seed: *seed,
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
	if cfg.burst > 0 {
		return usagef("-burst takes only 0 (the per-packet oracle); the burst slot budget is not configurable")
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
	if !(cfg.load >= 0 && cfg.load <= 16) { // written so NaN fails
		return usagef("-load must be in 0..16, got %v", cfg.load)
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

// build constructs the simulation through the one deterministic
// construction path shared by fresh starts and resumes (DESIGN.md §13:
// restore pours state into an identically built object graph). When
// start is true the traffic generators fire their first emission; a
// resume leaves them prepared and re-arms them from the checkpoint.
type simState struct {
	cfg   *config
	sched *sim.Scheduler
	arch  *core.Arch
	sw    *core.Switch
	inst  *p4.Instance
	tel   *telemetry.Collector
	gens  []*workload.Gen
}

func build(cfg *config, start bool, out io.Writer) (*simState, error) {
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
		NoBurst:   cfg.burst == 0,
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
			Live:         cfg.obsOn(),
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
		sc := workload.SaturateConfig{
			Flow: fl, Rate: sim.Rate(cfg.gbps) * sim.Gbps,
			Load: cfg.load, Size: cfg.size, Until: horizon,
		}
		if start {
			g.StartSaturate(sc)
		} else {
			g.PrepareSaturate(sc)
		}
		st.gens = append(st.gens, g)
	}
	return st, nil
}

func simulate(cfg *config, out, errw io.Writer) error {
	var st *simState
	var ck *checkpointer
	horizon := sim.Time(cfg.ms) * sim.Millisecond

	if cfg.resume != "" {
		f, err := checkpoint.Open(cfg.resume)
		if err != nil {
			return err
		}
		if f.ConfigDigest != cfg.digest() {
			return usagef("checkpoint %s was written under different flags (config digest %#x, these flags %#x); "+
				"resume with the same configuration", cfg.resume, f.ConfigDigest, cfg.digest())
		}
		st, err = build(cfg, false, out)
		if err != nil {
			return err
		}
		ck, err = restoreRun(st, f)
		if err != nil {
			return fmt.Errorf("restoring %s: %w", cfg.resume, err)
		}
		fmt.Fprintf(errw, "evsim: resumed from %s at t=%v\n", cfg.resume, st.sched.Now())
	} else {
		var err error
		st, err = build(cfg, true, out)
		if err != nil {
			return err
		}
		if cfg.ckptEvery > 0 {
			ck = newCheckpointer(st)
			ck.arm(cfg.ckptEvery)
		}
	}

	// Observability plane: started after build/restore (so checkpoint
	// restoration's single-threaded writes finish before any scrape) and
	// strictly read-only — stats, telemetry exports, and checkpoints are
	// byte-identical with it on or off.
	if cfg.httpAddr != "" {
		srv, err := obs.Serve(obs.Options{
			Addr: cfg.httpAddr,
			Self: st.sched.Self(),
			Runs: func() []telemetry.RunExport {
				if st.tel == nil {
					return nil
				}
				return []telemetry.RunExport{{Label: "evsim", C: st.tel}}
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
			Interval:    cfg.streamEvery,
			Self:        st.sched.Self(),
		})
		if err != nil {
			return err
		}
		sink.Attach("evsim", st.tel)
	}

	st.sched.Run(horizon + 2*sim.Millisecond)
	if ck != nil && ck.err != nil {
		return fmt.Errorf("writing checkpoint: %w", ck.err)
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
