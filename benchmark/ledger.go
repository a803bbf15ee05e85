package main

import (
	"runtime"
	"strings"
	"time"
)

// driverMin is how long each layer driver loops; shorter loops move with
// scheduling noise.
const driverMin = 500 * time.Millisecond

// perOp times drive until one call lasts at least minDur and returns host
// nanoseconds per operation of that call. drive(n) does about n operations
// and reports how many it did.
func perOp(minDur time.Duration, drive func(n int) int) float64 {
	for n := 1 << 10; ; {
		start := time.Now()
		done := drive(n)
		d := time.Since(start)
		if d >= minDur || done == 0 {
			return float64(d.Nanoseconds()) / float64(max(done, 1))
		}
		// Aim a fifth past the target; never grow more than 100× a step.
		grow := 100.0
		if d > 0 {
			grow = min(grow, 1.2*float64(minDur)/float64(d))
		}
		n = int(float64(n)*grow) + 1
	}
}

// clockNs calibrates one tracer clock pair: the host time a span's two
// clock reads add to whatever encloses it. The span's own measurement
// carries half of it (from the first read's sample point to the second's).
func clockNs(tr *tracer, minDur time.Duration) float64 {
	return perOp(minDur, func(n int) int {
		var sink int64
		for i := 0; i < n; i++ {
			t0 := tr.now()
			sink += tr.now() - t0
		}
		_ = sink
		return n
	})
}

// ledgerTerm is one line of the per-layer cost ledger: host time on the
// traced run that the benchmark can pin on one layer, either measured in
// place around a call into it or as count × an isolated driver's cost.
type ledgerTerm struct {
	Layer   string  `json:"layer"`
	Source  string  `json:"source"` // "in-situ" or "driver"
	Count   uint64  `json:"count"`
	NsPerOp float64 `json:"ns_per_op"`
	TotalNs float64 `json:"total_ns"`
}

func driverTerm(layer string, count uint64, ns float64) ledgerTerm {
	return ledgerTerm{Layer: layer, Source: "driver", Count: count, NsPerOp: ns, TotalNs: float64(count) * ns}
}

// inSituTerm takes a span's total net of the clock read each record carries.
func inSituTerm(layer string, spans []*spanRec, name string, clock float64) ledgerTerm {
	total, count := spanTotal(spans, name)
	t := ledgerTerm{Layer: layer, Source: "in-situ", Count: count}
	if count > 0 {
		t.TotalNs = max(0, float64(total)-float64(count)*clock/2)
		t.NsPerOp = t.TotalNs / float64(count)
	}
	return t
}

// handlerSpans merges every pisa.handler.<kind> span.
func handlerSpans(spans []*spanRec, clock float64) ledgerTerm {
	t := ledgerTerm{Layer: "pisa", Source: "in-situ"}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "pisa.handler.") {
			t.Count += s.Count
			t.TotalNs += max(0, float64(s.TotalNs)-float64(s.Count)*clock/2)
		}
	}
	if t.Count > 0 {
		t.NsPerOp = t.TotalNs / float64(t.Count)
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureLayers is a --trace 1 run: untraced reference trials for a third of
// the budget, one traced trial, then the layer drivers calibrated to what
// the traced trial saw.
func measureLayers(spec *workloadSpec, o options) *report {
	r := &report{Workload: spec.name, Trace: 1, Seed: o.seed, Host: thisHost()}
	trials := timedTrials(spec, o, o.seconds/3, r)
	var walls []float64
	for _, t := range trials {
		walls = append(walls, t.wallS)
	}
	untraced := summarise(walls).Median
	var twinWall float64
	if spec.twin != "" {
		twinWall = runTwin(spec, o, r)
	}
	_, compileS := timeSetup(spec, o)

	tr := newTracer()
	clock := clockNs(tr, o.driverMin()/5)
	traced, e, sc := runTrial(spec, o, tr)
	if traced.counts.Digest != r.Counts.Digest {
		r.errorf("traced digest %016x differs from untraced %016x", traced.counts.Digest, r.Counts.Digest)
	}
	tr.rec("run", "").add(int64(traced.wallS * 1e9))
	spans := tr.merged()
	cal := e.calibrate(spec, sc, r.Counts)

	drv := func(mk func(calibration) func(int) int) float64 { return perOp(o.driverMin(), mk(cal)) }
	dispatchNs := drv(driveDispatch)
	laneNs := drv(driveLane)
	barrierNs := drv(driveBarrier)
	pathNs := max(0, drv(drivePath)-drv(driveInject))
	parseNs := drv(driveParse)
	buildNs := drv(driveBuild)
	poolNs := drv(drivePool)
	offerPopNs := drv(driveEventQueue)
	deferDrainNs := drv(driveState)
	tmNs := drv(driveTM)
	genNs := drv(driveGen)

	// The ledger. Counts are the untraced trials'; every frame a generator
	// emits is one scheduler event, charged to the workload, not to sim.
	c := r.Counts
	inject := inSituTerm("core", spans, "core.inject", clock)
	send := inSituTerm("netsim", spans, "netsim.send", clock)
	handlers := handlerSpans(spans, clock)
	barrier := inSituTerm("sim", spans, "sim.barrier", clock)
	ledger := []ledgerTerm{
		inject, send, handlers, barrier,
		driverTerm("workload", c.GenFrames, genNs),
		driverTerm("sim", c.Fired-min(c.Fired, c.GenFrames), dispatchNs),
		driverTerm("netsim", c.LinkSent-c.HostSends, pathNs/2),
		driverTerm("packet", c.PktHops, parseNs+poolNs),
		driverTerm("tm", c.TMEnq, tmNs),
		driverTerm("events", c.EvQueued, offerPopNs),
		driverTerm("state", c.Deferred, deferDrainNs),
	}
	var attributed float64
	for _, t := range ledger {
		attributed += t.TotalNs
	}
	// Every term is net of tracing cost, so its share is of the untraced wall.
	wallNs := untraced * 1e9
	windowNs, _ := spanTotal(spans, "sim.window")
	drainNs, _ := spanTotal(spans, "netsim.mailbox_drain")
	slots := float64(c.PacketSlots + c.EmptySlots)

	m := map[string]float64{
		"failed_share":             ratio(float64(c.failed()), float64(c.Offered)),
		"sim_staleness_max_cycles": float64(c.MaxLag),

		"sim.events_fired":    float64(c.Fired),
		"sim.fired_per_cycle": ratio(float64(c.Fired), float64(c.Cycles)),
		"sim.pending_p50":     float64(cal.pending),
		"sim.dispatch_ns":     dispatchNs,
		"sim.lane_ns":         laneNs,

		"sim.windows":        float64(c.Windows),
		"sim.barriers":       float64(c.Barriers),
		"sim.window_wall_s":  float64(windowNs) / 1e9,
		"sim.barrier_wall_s": barrier.TotalNs / 1e9,
		"sim.barrier_ns":     barrierNs,
		"sim.par_speedup":    ratio(twinWall, untraced),
		"sim.par_efficiency": ratio(twinWall, untraced) / float64(min(2, runtime.NumCPU())),

		"netsim.frames_sent":      float64(c.LinkSent),
		"netsim.frames_delivered": float64(c.LinkDelivered),
		"netsim.frames_cross":     float64(c.LinkCross),
		"netsim.lost":             float64(c.LinkLost),
		"netsim.send_ns":          send.NsPerOp,
		"netsim.path_ns":          pathNs,
		"netsim.mailbox_drain_s":  float64(drainNs) / 1e9,

		"packet.bytes_per_pkt": ratio(float64(c.TxBytes), float64(c.PktHops)),
		"packet.parse_ns":      parseNs,
		"packet.build_ns":      buildNs,
		"packet.pool_ns":       poolNs,

		"p4.compile_s":          compileS,
		"pisa.handler_calls":    float64(handlers.Count),
		"pisa.handler_ns":       handlers.NsPerOp,
		"pisa.handler_share":    handlers.TotalNs / wallNs,
		"pisa.table_lookups":    float64(c.TableLookups),
		"pisa.table_miss_share": ratio(float64(c.TableMisses), float64(c.TableLookups)),

		"events.merged":           float64(c.EvMerged),
		"events.dropped":          float64(c.EvDropped),
		"events.coalesced":        float64(c.EvCoalesced),
		"events.shed":             float64(c.EvShed),
		"events.per_slot":         ratio(float64(c.EvMerged), slots),
		"events.empty_slot_share": ratio(float64(c.EmptySlots), slots),
		"events.offer_pop_ns":     offerPopNs,

		"state.deferred":        float64(c.Deferred),
		"state.drained":         float64(c.Drained),
		"state.dropped":         float64(c.StateDropped),
		"state.max_backlog":     float64(c.MaxBacklog),
		"state.mean_lag_cycles": c.MeanLag,
		"state.defer_drain_ns":  deferDrainNs,

		"tm.enqueued":   float64(c.TMEnq),
		"tm.dequeued":   float64(c.TMDeq),
		"tm.drops":      float64(c.TMDrops),
		"tm.peak_bytes": float64(c.TMPeakBytes),
		"tm.enq_deq_ns": tmNs,

		"core.cycles":       float64(c.Cycles),
		"core.packet_slots": float64(c.PacketSlots),
		"core.empty_slots":  float64(c.EmptySlots),
		"core.drain_slots":  float64(c.DrainSlots),
		"core.slot_util":    ratio(float64(c.PacketSlots), float64(c.Cycles)),
		"core.inject_ns":    inject.NsPerOp,

		"workload.pkts_offered": float64(c.Offered),
		"workload.gen_ns":       genNs,

		"ledger.clock_ns":         clock,
		"ledger.trace_overhead":   traced.wallS/untraced - 1,
		"ledger.attributed_share": attributed / wallNs,
		"core.unattributed_share": 1 - attributed/wallNs,
	}
	r.PerLayer = m

	r.trace = &traceFile{
		Workload: spec.name, Seed: o.seed, Host: r.Host, ClockNs: clock, WallS: traced.wallS,
		Spans: summarize(spans, clock), Ledger: ledger, Metrics: m,
	}
	return r
}
