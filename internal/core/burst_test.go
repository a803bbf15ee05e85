package core

import (
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

const burstFrames = 64

// burstForwardRig is p4ForwardRig's vectorized twin: the same compiled
// µP4 forward program, but each step injects a whole burst of frames at
// one instant — as a same-instant arrival group reaches a switch from
// the wire band, one Inject per frame — and advances the scheduler far enough to
// drain it. With noBurst the switch executes the identical workload one slot
// per wakeup — the per-packet differential oracle.
func burstForwardRig(tb testing.TB, noBurst bool) (step func(), sw *Switch, inst *p4.Instance) {
	sched := sim.NewScheduler()
	sw = New(Config{NoBurst: noBurst}, EventDriven(), sched)
	inst = p4.MustCompile(forwardProgramSrc).Instantiate("fwd", p4.Options{Interpret: false})
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 1, 0, 1))}, nil, 0, "set_port", 1); err != nil {
		tb.Fatal(err)
	}
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 0, 0, 1))}, nil, 0, "set_port", 0); err != nil {
		tb.Fatal(err)
	}
	sw.MustLoad(inst.Program())

	frames := make([][]byte, burstFrames)
	for i := range frames {
		frames[i] = packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1 + i%4), DstPort: 2, Proto: packet.ProtoUDP,
		}})
	}
	gap := (10 * sim.Gbps).ByteTime(len(frames[0]) + WireOverhead)
	step = func() {
		for _, f := range frames {
			sw.Inject(0, f)
		}
		sched.Run(sched.Now() + burstFrames*gap)
	}
	// Warm the rx rings, packet pool, and TM queues past their
	// steady-state sizes.
	for i := 0; i < 100; i++ {
		step()
	}
	return step, sw, inst
}

// TestSwitchBurstForwardZeroAlloc asserts the vectorized forward path —
// a same-instant arrival burst through burst pipeline slots to the TM —
// performs zero heap allocations in steady state, like its per-packet twin
// TestSwitchForwardZeroAlloc.
func TestSwitchBurstForwardZeroAlloc(t *testing.T) {
	step, sw, _ := burstForwardRig(t, false)
	before := sw.Stats().TxPackets
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("burst forward path allocates %v per burst, want 0", avg)
	}
	if sw.Stats().TxPackets == before {
		t.Fatal("nothing forwarded during the measurement")
	}
}

// TestSwitchBurstEquivalence drives the same vectorized workload through
// the burst engine and the per-packet oracle (Config.NoBurst) and
// requires identical switch stats, register state, counters, and table
// stats — the switch-level half of the burst differential.
func TestSwitchBurstEquivalence(t *testing.T) {
	type snapshot struct {
		stats           Stats
		occ, flow, tx   [8]int64
		ports0, ports1  uint64
		lookups, misses uint64
	}
	snap := func(noBurst bool) snapshot {
		step, sw, inst := burstForwardRig(t, noBurst)
		for i := 0; i < 200; i++ {
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
	burst := snap(false)
	oracle := snap(true)
	if burst != oracle {
		t.Fatalf("burst engine diverges from per-packet oracle:\nburst:  %+v\noracle: %+v", burst, oracle)
	}
	if burst.stats.TxPackets == 0 {
		t.Fatalf("rig forwarded nothing: %+v", burst)
	}
}

// TestBurstInjectLinkDown pins the port-down accounting of a burst: every
// frame of a burst offered to a downed port is one RxDropped.
func TestBurstInjectLinkDown(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{Ports: 2}, EventDriven(), sched)
	sw.MustLoad(xconnect())
	sw.SetLink(0, false)
	for i := 0; i < 3; i++ {
		sw.Inject(0, frame(100, 1, 2))
	}
	if got := sw.Stats().RxDropped; got != 3 {
		t.Fatalf("RxDropped = %d after burst into downed port, want 3", got)
	}
	sched.Run(sim.Millisecond)
	if got := sw.Stats().TxPackets; got != 0 {
		t.Fatalf("TxPackets = %d, want 0 (all frames dropped at rx)", got)
	}
}

// BenchmarkSwitchForwardPathBurst measures the vectorized forward path:
// one 64-frame same-instant burst per iteration, executed by the burst slot
// loop (0 allocs/op). Compare ns/op ÷ 64 against the per-frame cost of
// the BurstOff variant below — the burst engine's per-frame win.
func BenchmarkSwitchForwardPathBurst(b *testing.B) {
	step, sw, _ := burstForwardRig(b, false)
	benchForward(b, step, sw)
}

// BenchmarkSwitchForwardPathBurstOff runs the identical 64-frame
// workload through the per-packet oracle (Config.NoBurst): one pipeline
// wakeup per slot, the dispatch cost the burst engine amortizes.
func BenchmarkSwitchForwardPathBurstOff(b *testing.B) {
	step, sw, _ := burstForwardRig(b, true)
	benchForward(b, step, sw)
}

// TestConveyorWideSwitch holds more than 64 tx completions pending at
// once — the pending set is a list, not one machine word — with frame
// sizes chosen so completion order differs from port order, and requires
// the burst engine and the per-packet oracle to transmit in the same
// order.
func TestConveyorWideSwitch(t *testing.T) {
	const ports = 96
	run := func(noBurst bool) (order []int, maxPend int, stats Stats) {
		sched := sim.NewScheduler()
		sw := New(Config{Ports: ports, NoBurst: noBurst}, EventDriven(), sched)
		sw.MustLoad(xconnect())
		sw.OnTransmit = func(port int, _ *packet.Packet) {
			order = append(order, port)
			maxPend = max(maxPend, len(sw.txPend)+1)
		}
		for round := 0; round < 3; round++ {
			for p := 0; p < ports; p++ {
				sw.Inject(p, frame(1500-13*((p*37)%ports), 1, 2))
			}
			sched.Run(sched.Now() + 20*sim.Microsecond)
		}
		return order, maxPend, sw.Stats()
	}
	burst, pend, bs := run(false)
	oracle, _, os := run(true)
	if pend <= 64 {
		t.Fatalf("at most %d tx completions pending at once; the test needs more than 64", pend)
	}
	if len(burst) != 3*ports || bs != os {
		t.Fatalf("transmitted %d frames, want %d; stats burst %+v oracle %+v", len(burst), 3*ports, bs, os)
	}
	for i := range burst {
		if burst[i] != oracle[i] {
			t.Fatalf("transmit %d left port %d under the burst engine, port %d under the oracle", i, burst[i], oracle[i])
		}
	}
}
