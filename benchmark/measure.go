package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// counts is everything one run of a scenario produced, as plain numbers.
// All of it is simulated: for one seed it repeats exactly, run after run and
// commit after commit, unless a change alters what the simulator computes.
type counts struct {
	Digest uint64

	Cycles, PktHops, TxBytes            uint64
	Offered, Delivered, GenFrames       uint64
	PacketSlots, EmptySlots, DrainSlots uint64

	EvMerged, EvQueued, EvDropped, EvCoalesced, EvShed uint64

	Fired, Windows, Barriers uint64

	LinkSent, LinkDelivered, LinkCross, LinkLost, HostSends uint64

	TableLookups, TableMisses uint64

	Deferred, Drained, StateDropped uint64
	MaxBacklog                      int
	MeanLag                         float64
	MaxLag                          uint64

	TMEnq, TMDeq, TMDrops uint64
	TMPeakBytes           int

	Audit []string // conservation violations; empty when the books balance
}

// failed is frames offered and not delivered by the end of the drain tail.
func (c counts) failed() uint64 { return c.Offered - c.Delivered }

// trial is one timed run of a freshly built scenario.
type trial struct {
	wallS      float64
	mallocs    uint64
	allocBytes uint64
	counts     counts
}

// options are what one run is asked for. The benchmark proper always runs at
// divisor 1; the smoke test divides every horizon, and with it takes one
// set-up sample and loops each driver for a millisecond.
type options struct {
	seed       uint64
	seconds    float64
	divisor    int  // horizon divisor
	skipGolden bool // set while golden.json is being rewritten
}

func (o options) setupSamples() int {
	if o.divisor > 1 {
		return 1
	}
	return setupSamples
}

func (o options) driverMin() time.Duration {
	if o.divisor > 1 {
		return time.Millisecond
	}
	return driverMin
}

func (s *workloadSpec) env(o options, tr *tracer) *env {
	return &env{seed: o.seed, horizon: s.horizon / simTime(o.divisor), tr: tr}
}

// runTrial builds the scenario afresh and times Run to horizon + drain tail.
func runTrial(spec *workloadSpec, o options, tr *tracer) (trial, *env, *scenario) {
	e := spec.env(o, tr)
	sc := spec.build(e)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sc.run(e.horizon + spec.tail)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return trial{
		wallS:      wall.Seconds(),
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		counts:     sc.collect(),
	}, e, sc
}

// setupSamples is how many times set-up is timed per run; each sample is
// setupK back-to-back builds.
const setupSamples = 9

// timeSetup returns host seconds per scenario build, and the share of it
// spent compiling µP4.
func timeSetup(spec *workloadSpec, o options) (perBuild, compile float64) {
	runtime.GC()
	var compileS float64
	start := time.Now()
	for i := 0; i < spec.setupK; i++ {
		e := spec.env(o, nil)
		spec.build(e)
		compileS += e.compileS
	}
	k := float64(spec.setupK)
	return time.Since(start).Seconds() / k, compileS / k
}

// sample summarises repeated host-time measurements.
type sample struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarise(vs []float64) sample {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return sample{Median: med, Min: s[0], Max: s[n-1], N: n}
}

// report is the full result of one (workload, seed, trace) run; the contract
// line printed last is a projection of it.
type report struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Seed     uint64             `json:"seed"`
	Host     hostInfo           `json:"host"`
	Errors   []string           `json:"errors"`
	Counts   counts             `json:"counts"`
	E2E      map[string]sample  `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	trace *traceFile // traced runs: what goes to benchmark/out/trace_<workload>.json
}

func (r *report) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// timedTrials runs the warm-up, the untraced trials and the correctness gate
// shared by both kinds of run, filling r.Counts. It measures until the timed
// runs add up to budget seconds.
func timedTrials(spec *workloadSpec, o options, budget float64, r *report) []trial {
	warm := o
	warm.divisor *= 10
	runTrial(spec, warm, nil)

	var trials []trial
	for spent := 0.0; len(trials) == 0 || spent < budget; {
		t, _, _ := runTrial(spec, o, nil)
		trials = append(trials, t)
		spent += t.wallS
	}
	r.Counts = trials[0].counts
	for i, t := range trials[1:] {
		if !reflect.DeepEqual(t.counts, r.Counts) {
			r.errorf("trial %d disagrees with trial 0: %+v vs %+v", i+1, t.counts, r.Counts)
		}
	}
	checkCounts(spec, o, r)
	return trials
}

// checkCounts is the correctness gate on one set of counts: conservation,
// full delivery, and — at seed 1 and full horizon — the golden values.
func checkCounts(spec *workloadSpec, o options, r *report) {
	c := r.Counts
	for _, v := range c.Audit {
		r.errorf("audit: %s", v)
	}
	if c.failed() != 0 {
		r.errorf("%d of %d frames offered were not delivered", c.failed(), c.Offered)
	}
	if o.seed == 1 && o.divisor == 1 && !o.skipGolden {
		if g, ok := goldens[spec.name]; !ok {
			r.errorf("no golden entry for %s", spec.name)
		} else if got := goldenOf(c); got != g {
			r.errorf("seed 1 differs from golden.json: got %+v, want %+v", got, g)
		}
	}
}

// runTwin runs the workload's twin once and requires equal digests. It
// returns the twin's wall time, which sim.par_speedup is the ratio against.
func runTwin(spec *workloadSpec, o options, r *report) float64 {
	twin := findWorkload(spec.twin)
	t, _, _ := runTrial(twin, o, nil)
	if t.counts.Digest != r.Counts.Digest {
		r.errorf("digest %016x differs from %s's %016x", r.Counts.Digest, twin.name, t.counts.Digest)
	}
	return t.wallS
}

// measure is a --trace 0 run: the end-to-end metrics.
func measure(spec *workloadSpec, o options) *report {
	r := &report{Workload: spec.name, Seed: o.seed, Host: thisHost()}
	trials := timedTrials(spec, o, o.seconds, r)
	// Peak RSS is read here, while it is still the peak of the timed runs:
	// the twin and the set-up samples below only produce garbage.
	rss := maxRSSMiB()
	if spec.twin != "" {
		runTwin(spec, o, r)
	}

	var setups []float64
	for i := 0; i < o.setupSamples(); i++ {
		s, _ := timeSetup(spec, o)
		setups = append(setups, s)
	}

	c := r.Counts
	var wall, hops, perCycle, mallocs, alloc []float64
	for _, t := range trials {
		wall = append(wall, t.wallS)
		hops = append(hops, float64(c.PktHops)/t.wallS)
		perCycle = append(perCycle, t.wallS*1e9/float64(c.Cycles))
		mallocs = append(mallocs, float64(t.mallocs)*1000/float64(c.PktHops))
		alloc = append(alloc, float64(t.allocBytes)/(1<<20))
	}
	r.E2E = map[string]sample{
		"setup_s":          summarise(setups),
		"wall_s":           summarise(wall),
		"pkt_hops_per_s":   summarise(hops),
		"ns_per_cycle":     summarise(perCycle),
		"mallocs_per_kpkt": summarise(mallocs),
		"alloc_mb":         summarise(alloc),
		"max_rss_mb":       {Median: rss, Min: rss, Max: rss, N: 1},
	}
	return r
}

// maxRSSMiB is the process's peak resident set. Each workload runs in a
// process of its own, so this is the workload's. It is read from VmHWM, which
// starts afresh at exec; ru_maxrss does not, and under `go run` would report
// the go tool's own 20 MiB for every workload smaller than that.
func maxRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kib / 1024
		}
	}
	return 0
}
