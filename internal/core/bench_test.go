package core

import (
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// BenchmarkSwitchPacketsPerSecond measures the simulator's end-to-end
// throughput in simulated packets per wall-clock second: one forwarded
// min-size packet per iteration including enqueue/dequeue event handling
// and register aggregation.
func BenchmarkSwitchPacketsPerSecond(b *testing.B) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	prog := pisa.NewProgram("bench")
	occ := prog.AddRegister(pisa.NewAggregatedRegister("occ", 64,
		events.BufferEnqueue, events.BufferDequeue))
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {
		ctx.EgressPort = ctx.Pkt.InPort ^ 1
	})
	prog.HandleFunc(events.BufferEnqueue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), int64(ctx.Ev.PktLen))
	})
	prog.HandleFunc(events.BufferDequeue, func(ctx *pisa.Context) {
		occ.Add(ctx, uint32(ctx.Ev.Port), -int64(ctx.Ev.PktLen))
	})
	sw.MustLoad(prog)
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
	}})
	gap := (10 * sim.Gbps).ByteTime(len(data) + WireOverhead)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Inject(0, data)
		sched.Run(sched.Now() + gap)
	}
	b.StopTimer()
	sched.Run(sched.Now() + sim.Millisecond) // drain the tail
	if sw.Stats().TxPackets == 0 {
		b.Fatal("nothing forwarded")
	}
}

// timerCycleSwitch builds a switch whose only work is a periodic timer
// event, so advancing the scheduler by one period exercises exactly the
// per-cycle machinery: timer rearm, event queue, merger slot formation
// with the reusable empty-packet carrier, handler dispatch, and the
// cycle lane's self-rearm.
func timerCycleSwitch(b testing.TB) (*sim.Scheduler, *Switch, sim.Time) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	prog := pisa.NewProgram("cycle")
	prog.HandleFunc(events.TimerExpiration, func(*pisa.Context) {})
	sw.MustLoad(prog)
	period := 10 * sw.CycleTime()
	if err := sw.ConfigureTimer(0, period); err != nil {
		b.Fatal(err)
	}
	// Warm every free list and ring buffer past its steady-state size.
	sched.Run(sched.Now() + 200*period)
	return sched, sw, period
}

// BenchmarkSwitchCycle measures the per-cycle cost of the slot machinery
// alone (no packets on the wire): one timer event per scheduler advance.
func BenchmarkSwitchCycle(b *testing.B) {
	sched, sw, period := timerCycleSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Run(sched.Now() + period)
	}
	b.StopTimer()
	if sw.Stats().Cycles == 0 {
		b.Fatal("no cycles ran")
	}
}

// nativeForwardRig builds an event-driven switch with handwritten Go
// handlers and register aggregation, and returns a step that forwards
// one min-size packet end to end, with every pool and ring warmed past
// its steady-state size. It is the program-cost-free floor the µP4
// backends are measured against.
func nativeForwardRig(tb testing.TB) (step func(), sw *Switch) {
	sched := sim.NewScheduler()
	sw = New(Config{}, EventDriven(), sched)
	sw.MustLoad(occupancyProgram())
	return forwardStep(sched, sw), sw
}

// occupancyProgram is the handwritten occupancy tracker: an ingress
// handler that reads the aggregated per-port occupancy and cross-connects
// port pairs, and BufferEnqueue/BufferDequeue handlers that maintain it.
func occupancyProgram() *pisa.Program {
	prog := pisa.NewProgram("occ")
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
	return prog
}

// BenchmarkSwitchEventSlot measures the merger's slot by itself: all four
// ports saturated with 60 B frames under the occupancy program, so every
// slot carries a packet and piggy-backs the enqueue and dequeue events of
// earlier ones. One iteration is one line-rate gap (a frame per port);
// ns/slot is wall time over the packet and carrier slots executed, and
// the path allocates nothing.
func BenchmarkSwitchEventSlot(b *testing.B) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	sw.MustLoad(occupancyProgram())
	var frames [4][]byte
	for p := range frames {
		frames[p] = packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
			Src: packet.IP4(10, byte(p), 0, 1), Dst: packet.IP4(10, byte(p^1), 0, 1),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
		}})
	}
	gap := (10 * sim.Gbps).ByteTime(len(frames[0]) + WireOverhead)
	step := func() {
		for p, f := range frames {
			sw.Inject(p, f)
		}
		sched.Run(sched.Now() + gap)
	}
	for i := 0; i < 300; i++ {
		step()
	}
	before := sw.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	after := sw.Stats()
	slots := after.PacketSlots + after.EmptySlots - before.PacketSlots - before.EmptySlots
	merged := after.EventsMerged[events.BufferEnqueue] + after.EventsMerged[events.BufferDequeue] -
		before.EventsMerged[events.BufferEnqueue] - before.EventsMerged[events.BufferDequeue]
	if slots == 0 || merged < slots {
		b.Fatalf("%d slots merged %d TM events: the rig is not exercising the event path", slots, merged)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
}

// forwardProgramSrc is the µP4 program behind BenchmarkSwitchForwardPath:
// a stateful telemetry-and-forward pipeline with per-flow hashing, two
// register accesses, an exact table with a parameterized action, a byte
// counter, and per-event accounting on the enqueue/dequeue/transmit
// threads — the per-packet work profile of the paper's example programs.
const forwardProgramSrc = `
shared_register<bit<32>>(64) occ;
shared_register<bit<64>>(256) flowbytes;
shared_register<bit<64>>(64) txbytes;
counter(8) ports;
action set_port(p) { forward(p); ports.count(p); }
action toss() { drop(); }
table fwd {
    key = { hdr.ip.dst : exact; }
    actions = { set_port; toss; }
    default_action = toss();
}
control Ingress {
    bit<32> h; bit<32> q; bit<64> fb; bit<64> ew; bit<64> score;
    bit<16> fl; bit<64> dig; bit<64> t; bit<64> u;
    apply {
        hash(h, hdr.ip.src, hdr.ip.dst, hdr.udp.sport, hdr.udp.dport, hdr.ip.proto);
        flowbytes.read(h % 256, fb);
        occ.read(std.ingress_port ^ 1, q);
        t = fb >> 3;
        ew = fb - t;
        t = std.pkt_len << 5;
        ew = ew + t;
        t = ew >> 10;
        u = fb >> 12;
        score = max(t, u) + min(q, 4096);
        score = score + ssub(score, 9000) + (hdr.ip.ttl << 2) + (hdr.ip.len ^ hdr.udp.dport);
        t = score >> 5;
        t = t * 3;
        u = score * 7;
        score = u + t;
        score = score % 65536;
        t = score & 1023;
        ew = ew + t;
        t = score >> 8;
        u = ew >> 9;
        ew = ew - min(t, u);
        fl = (hdr.udp.sport ^ hdr.udp.dport) + (h & 0xff);
        dig = fb << 1;
        t = ew << 2;
        dig = dig ^ t;
        t = q << 3;
        dig = dig ^ t;
        t = dig >> 7;
        u = dig >> 13;
        dig = dig + t;
        dig = dig + u;
        t = dig >> 31;
        t = dig ^ t;
        dig = t * 0x9e377;
        t = dig & 0x3f;
        fl = fl + t;
        fl = fl - min(fl, 52);
        dig = dig ^ (fl * 31) ^ (std.pkt_len * 7);
        t = dig & 255;
        score = score + t;
        u = dig & 127;
        score = score - ssub(u, 64);
        flowbytes.write(h % 256, fb + std.pkt_len + (ew & 1));
        fwd.apply();
        if (q > 1000000 || score > 64000) { set_tos(3); }
        if (hdr.ip.ttl < 2) { drop(); }
    }
}
control Enqueue {
    bit<32> d;
    apply {
        d = ev.pkt_len + (ev.pkt_len >> 2) - min(ev.queue, 8);
        occ.add(ev.port, ev.pkt_len + (d >> 31));
    }
}
control Dequeue {
    bit<32> d;
    apply {
        d = ev.pkt_len + (ev.pkt_len >> 3);
        occ.add(ev.port, 0 - ev.pkt_len - (d >> 31));
    }
}
control Transmitted {
    apply {
        txbytes.add(ev.port, ev.pkt_len);
    }
}`

// p4ForwardRig is nativeForwardRig's µP4 twin: the same end-to-end
// forward path with the program supplied as µP4 source and executed by
// the selected backend.
func p4ForwardRig(tb testing.TB, interp bool) (step func(), sw *Switch, inst *p4.Instance) {
	sched := sim.NewScheduler()
	sw = New(Config{}, EventDriven(), sched)
	inst = p4.MustCompile(forwardProgramSrc).Instantiate("fwd", p4.Options{Interpret: interp})
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 1, 0, 1))}, nil, 0, "set_port", 1); err != nil {
		tb.Fatal(err)
	}
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 0, 0, 1))}, nil, 0, "set_port", 0); err != nil {
		tb.Fatal(err)
	}
	sw.MustLoad(inst.Program())
	return forwardStep(sched, sw), sw, inst
}

// forwardStep injects one min-size packet and advances the scheduler one
// line-rate gap, after warming every pool and ring past steady state.
func forwardStep(sched *sim.Scheduler, sw *Switch) func() {
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
	}})
	gap := (10 * sim.Gbps).ByteTime(len(data) + WireOverhead)
	step := func() {
		sw.Inject(0, data)
		sched.Run(sched.Now() + gap)
	}
	for i := 0; i < 300; i++ {
		step()
	}
	return step
}

// BenchmarkSwitchForwardPath measures the steady-state pooled forward
// path running the compiled µP4 program: inject -> rx queue -> pipeline
// slot -> register aggregation -> TM -> egress -> transmit -> release,
// one packet per iteration (0 allocs/op). The Interp variant runs the
// same program on the AST-interpreter oracle, the Native variant the
// handwritten-Go floor.
func BenchmarkSwitchForwardPath(b *testing.B) {
	step, sw, _ := p4ForwardRig(b, false)
	benchForward(b, step, sw)
}

func BenchmarkSwitchForwardPathInterp(b *testing.B) {
	step, sw, _ := p4ForwardRig(b, true)
	benchForward(b, step, sw)
}

func BenchmarkSwitchForwardPathNative(b *testing.B) {
	step, sw := nativeForwardRig(b)
	benchForward(b, step, sw)
}

func benchForward(b *testing.B, step func(), sw *Switch) {
	before := sw.Stats().TxPackets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if sw.Stats().TxPackets == before {
		b.Fatal("nothing forwarded")
	}
}

// TestSwitchForwardZeroAlloc asserts the per-packet forward path performs
// zero heap allocations in steady state — for the compiled µP4 backend
// and for handwritten Go handlers — the pooled-lifecycle regression
// guard next to the per-cycle one below.
func TestSwitchForwardZeroAlloc(t *testing.T) {
	step, sw, _ := p4ForwardRig(t, false)
	before := sw.Stats().TxPackets
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("compiled µP4 forward path allocates %v per packet, want 0", avg)
	}
	if sw.Stats().TxPackets == before {
		t.Fatal("nothing forwarded during the measurement")
	}
	nstep, nsw := nativeForwardRig(t)
	nbefore := nsw.Stats().TxPackets
	if avg := testing.AllocsPerRun(500, nstep); avg != 0 {
		t.Errorf("native forward path allocates %v per packet, want 0", avg)
	}
	if nsw.Stats().TxPackets == nbefore {
		t.Fatal("nothing forwarded during the native measurement")
	}
}

// TestSwitchForwardBackendsIdentical drives the µP4 forward rig for the
// same packet count under both backends and requires identical switch
// stats and register/counter state: the end-to-end analogue of the
// package-level differential tests in internal/p4.
func TestSwitchForwardBackendsIdentical(t *testing.T) {
	type snapshot struct {
		stats           Stats
		occ, flow, tx   [8]int64
		ports0, ports1  uint64
		lookups, misses uint64
	}
	snap := func(interp bool) snapshot {
		step, sw, inst := p4ForwardRig(t, interp)
		for i := 0; i < 2000; i++ {
			step()
		}
		var s snapshot
		s.stats = sw.Stats()
		for i := 0; i < 8; i++ {
			s.occ[i] = inst.Register("occ").True(uint32(i))
			s.flow[i] = inst.Register("flowbytes").True(uint32(i * 33))
			s.tx[i] = inst.Register("txbytes").True(uint32(i))
		}
		s.ports0, _ = inst.Program().Counter("ports").Value(0)
		s.ports1, _ = inst.Program().Counter("ports").Value(1)
		s.lookups, s.misses = inst.Table("fwd").Stats()
		return s
	}
	compiled := snap(false)
	interp := snap(true)
	if compiled != interp {
		t.Fatalf("backend divergence:\ncompiled: %+v\ninterp:   %+v", compiled, interp)
	}
	if compiled.stats.TxPackets == 0 || compiled.ports1 == 0 {
		t.Fatalf("rig forwarded nothing: %+v", compiled)
	}
}

// TestSwitchCycleZeroAlloc is the regression guard for the scheduler and
// merger hot-path pooling: in steady state a pipeline cycle driven by
// timer events must not allocate at all. Before the free-list scheduler
// and the cycle lane, every cycle allocated a schedEvent plus a wake
// closure; a regression here reintroduces per-cycle garbage across every
// experiment.
func TestSwitchCycleZeroAlloc(t *testing.T) {
	sched, sw, period := timerCycleSwitch(t)
	cyclesBefore := sw.Stats().Cycles
	if avg := testing.AllocsPerRun(500, func() {
		sched.Run(sched.Now() + period)
	}); avg != 0 {
		t.Errorf("per-cycle hot path allocates %v per period, want 0", avg)
	}
	if sw.Stats().Cycles == cyclesBefore {
		t.Fatal("no cycles ran during the measurement")
	}
}

// TestGeneratorPathZeroAlloc pins the generated-packet staging queue at
// zero allocations per packet: a generator frame routed through the
// pipeline (AddGenerator with port -1) is pushed on genq by the ticker and
// popped by the next slot. Popping by reslice walked genq off its backing
// array, so every push reallocated — one malloc per generated packet.
func TestGeneratorPathZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	prog := pisa.NewProgram("gen")
	prog.HandleFunc(events.GeneratedPacket, func(ctx *pisa.Context) { ctx.EgressPort = 1 })
	sw.MustLoad(prog)
	probe := packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1),
		&packet.Probe{TorID: 1})
	period := 10 * sw.CycleTime()
	if err := sw.AddGenerator(period, func(uint64) ([]byte, int) { return probe, -1 }); err != nil {
		t.Fatal(err)
	}
	sched.Run(sched.Now() + 200*period)
	before := sw.Stats()
	if avg := testing.AllocsPerRun(500, func() {
		sched.Run(sched.Now() + period)
	}); avg != 0 {
		t.Errorf("generator path allocates %v per generated packet, want 0", avg)
	}
	after := sw.Stats()
	if after.Generated == before.Generated || after.TxPackets == before.TxPackets {
		t.Fatalf("no generated packet crossed the switch during the measurement: %+v", after)
	}
}

// TestStandingBacklogBoundedQueue holds three frames queued on one input
// port for 200 000 cycles, one arrival per slot. A queue that recycles its
// backing array only when it empties never does here: the port's array
// grew by a slot per packet (len 200 004 for 3 live packets). The shared
// FIFO compacts, so the array stays a few hundred slots.
func TestStandingBacklogBoundedQueue(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{}, EventDriven(), sched)
	prog := pisa.NewProgram("sink")
	prog.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) { ctx.Drop() })
	sw.MustLoad(prog)
	f := frame(60, 1, 2)
	for i := 0; i < 3; i++ {
		sw.Inject(0, f)
	}
	minQueued := 3
	for i := 0; i < 200_000; i++ {
		sw.Inject(0, f)
		sched.Run(sched.Now() + sw.CycleTime())
		if q := sw.rxq[0].Len(); q < minQueued {
			minQueued = q
		}
	}
	if minQueued < 2 {
		t.Fatalf("backlog fell to %d: the queue emptied and the test is vacuous", minQueued)
	}
	if st := sw.Stats(); st.PacketSlots < 199_000 {
		t.Fatalf("PacketSlots = %d, want ~200000", st.PacketSlots)
	}
	// The FIFO's backing array past its head, read by reflection: the
	// queue exposes no slice.
	rxq := reflect.ValueOf(sw.rxq[0])
	if c := rxq.FieldByName("q").Cap() - int(rxq.FieldByName("head").Int()); c > 1024 {
		t.Errorf("rx queue holds %d packets in a backing array with %d slots past its head", sw.rxq[0].Len(), c)
	}
}
