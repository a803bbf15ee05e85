package core

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// BenchmarkSwitchCycleTelemetryOff is BenchmarkSwitchCycle with the probe
// points compiled in but no collector attached — the configuration every
// experiment runs in by default. Compare its ns/op against
// BenchmarkSwitchCycle: the nil-guard cost must stay in the noise, and it
// asserts 0 allocs/op outright so a regression fails the benchmark run.
func BenchmarkSwitchCycleTelemetryOff(b *testing.B) {
	sched, sw, period := timerCycleSwitch(b)
	if sw.tel != nil {
		b.Fatal("telemetry unexpectedly enabled")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Run(sched.Now() + period)
	}
	b.StopTimer()
	if sw.Stats().Cycles == 0 {
		b.Fatal("no cycles ran")
	}
	if b.N > 100 {
		if allocs := testing.AllocsPerRun(100, func() {
			sched.Run(sched.Now() + period)
		}); allocs != 0 {
			b.Fatalf("telemetry-off cycle allocates %v allocs/op, want 0", allocs)
		}
	}
}

// telemetryTestSwitch runs a small forwarding scenario with telemetry
// enabled: packets on two ports, an aggregated register updated by
// enqueue/dequeue events, and a timer.
func telemetryTestSwitch(t *testing.T) (*Switch, *telemetry.Collector) {
	t.Helper()
	sched := sim.NewScheduler()
	sw := New(Config{Name: "t0"}, EventDriven(), sched)
	col := telemetry.New(telemetry.Options{
		TraceCap:     1 << 12,
		SamplePeriod: 10 * sim.Microsecond,
	})
	sw.EnableTelemetry(col)

	prog := pisa.NewProgram("teltest")
	occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
		events.BufferEnqueue, events.BufferDequeue))
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		_ = occ.Read(ctx, uint32(ctx.Pkt.InPort^1))
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	prog.HandleFunc(events.TimerExpiration, func(*pisa.Context) {})
	sw.MustLoad(prog)
	if err := sw.ConfigureTimer(0, 100*sw.CycleTime()); err != nil {
		t.Fatal(err)
	}

	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
	}})
	gap := (10 * sim.Gbps).ByteTime(len(data) + WireOverhead)
	for i := 0; i < 200; i++ {
		sw.Inject(0, data)
		sw.Inject(1, data)
		sched.Run(sched.Now() + gap)
	}
	sched.Run(sched.Now() + sim.Millisecond)
	return sw, col
}

// TestSwitchTelemetryCountersMatchStats checks that every probe counter
// agrees with the switch's own Stats — the two accountings are written at
// the same probe points and must never diverge.
func TestSwitchTelemetryCountersMatchStats(t *testing.T) {
	sw, col := telemetryTestSwitch(t)
	st := sw.Stats()
	p := sw.tel

	if got, want := p.Cycles.Value(), st.Cycles; got != want {
		t.Errorf("cycles counter %d, stats %d", got, want)
	}
	if got, want := p.PacketSlots.Value(), st.PacketSlots; got != want {
		t.Errorf("packet slots %d, stats %d", got, want)
	}
	if got, want := p.EmptySlots.Value(), st.EmptySlots; got != want {
		t.Errorf("empty slots %d, stats %d", got, want)
	}
	if got, want := p.DrainSlots.Value(), st.DrainSlots; got != want {
		t.Errorf("drain slots %d, stats %d", got, want)
	}
	if st.PacketSlots == 0 || st.EmptySlots == 0 {
		t.Fatalf("scenario too small: packetSlots=%d emptySlots=%d", st.PacketSlots, st.EmptySlots)
	}
	for k := 0; k < events.NumKinds; k++ {
		if got, want := p.Merged[k].Value(), st.EventsMerged[k]; got != want {
			t.Errorf("%v merged %d, stats %d", events.Kind(k), got, want)
		}
		if got, want := p.Enq[k].Shed.Value(), st.EventsShed[k]; got != want {
			t.Errorf("%v shed %d, stats %d", events.Kind(k), got, want)
		}
		if got, want := p.Enq[k].Coalesced.Value(), st.EventsCoalesced[k]; got != want {
			t.Errorf("%v coalesced %d, stats %d", events.Kind(k), got, want)
		}
		if got, want := p.Enq[k].Dropped.Value(), st.EventsDropped[k]; got != want {
			t.Errorf("%v dropped %d, stats %d", events.Kind(k), got, want)
		}
	}
	// The merger split must cover every merged non-packet event.
	var nonPacket uint64
	for k := 0; k < events.NumKinds; k++ {
		if !events.Kind(k).IsPacketEvent() && events.Kind(k) != events.EgressPacket {
			nonPacket += st.EventsMerged[k]
		}
	}
	if got := p.Piggybacked.Value() + p.Injected.Value(); got != nonPacket {
		t.Errorf("piggybacked %d + injected %d != merged non-packet events %d",
			p.Piggybacked.Value(), p.Injected.Value(), nonPacket)
	}
	if p.Piggybacked.Value() == 0 || p.Injected.Value() == 0 {
		t.Errorf("scenario should exercise both merger paths: piggy=%d injected=%d",
			p.Piggybacked.Value(), p.Injected.Value())
	}

	// Periodic gauges were armed (Registry getters create on miss, so
	// existence must be checked against the snapshot).
	wantGauges := []string{
		"sw.t0.evq." + events.TimerExpiration.String() + ".len",
		"sw.t0.tm.port0.bytes",
	}
	have := map[string]bool{}
	for _, m := range col.Registry().Snapshot() {
		if m.Type == "gauge" {
			have[m.Name] = true
		}
	}
	for _, name := range wantGauges {
		if !have[name] {
			t.Errorf("missing sampled gauge %q", name)
		}
	}
}

// TestSwitchTelemetryLifecycleStages checks that the trace saw all five
// lifecycle stages and that the register's staleness histogram agrees
// with the aggregation metrics.
func TestSwitchTelemetryLifecycleStages(t *testing.T) {
	sw, col := telemetryTestSwitch(t)

	// Decode the JSONL export (exercising the exporter on real data) and
	// require every lifecycle stage to appear.
	b := telemetry.EncodeJSONL([]telemetry.RunExport{{Label: "t", C: col}})
	for _, stage := range []string{"gen", "enqueue", "merge", "slot", "commit"} {
		if !bytes.Contains(b, []byte(`"stage":"`+stage+`"`)) {
			t.Errorf("lifecycle stage %q never traced", stage)
		}
	}

	// Staleness histogram vs the register's own metrics.
	reg := sw.prog.Registers()[0]
	am, _ := reg.Metrics()
	h := col.Registry().Histogram("sw.t0.reg.occ.staleness.cycles")
	if h.Count() != am.Drained {
		t.Errorf("histogram count %d != drained %d", h.Count(), am.Drained)
	}
	if h.Max() != am.MaxLag {
		t.Errorf("histogram max %d != MaxLag %d", h.Max(), am.MaxLag)
	}
	if am.Drained == 0 {
		t.Fatal("no drains happened; scenario too small")
	}
	if b := bits.Len64(am.MaxLag); h.Bucket(b) == 0 {
		t.Errorf("MaxLag %d not counted in its bucket %d", am.MaxLag, b)
	}
}
