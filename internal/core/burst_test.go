package core

import (
	"sort"
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

const burstFrames = 64

// burstForwardRig is p4ForwardRig with bursts: the same compiled µP4
// forward program, but each step injects a whole burst of frames at one
// instant — as a same-instant arrival group reaches a switch from the
// wire band, one Inject per frame — and advances the scheduler far enough
// to drain it, one pipeline slot per frame.
func burstForwardRig(tb testing.TB) (step func(), sw *Switch, inst *p4.Instance) {
	sched := sim.NewScheduler()
	sw = New(Config{}, EventDriven(), sched)
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

// TestSwitchBurstForwardZeroAlloc asserts the forward path of a
// same-instant arrival burst — 64 frames through one pipeline slot each
// to the TM — performs zero heap allocations in steady state, like the
// single-frame TestSwitchForwardZeroAlloc.
func TestSwitchBurstForwardZeroAlloc(t *testing.T) {
	step, sw, _ := burstForwardRig(t)
	before := sw.Stats().TxPackets
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("burst forward path allocates %v per burst, want 0", avg)
	}
	if sw.Stats().TxPackets == before {
		t.Fatal("nothing forwarded during the measurement")
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

// BenchmarkSwitchForwardPathBurst measures the forward path of one
// 64-frame same-instant burst per iteration (0 allocs/op); ns/op ÷ 64 is
// the per-frame cost with a full receive queue.
func BenchmarkSwitchForwardPathBurst(b *testing.B) {
	step, sw, _ := burstForwardRig(b)
	benchForward(b, step, sw)
}

// TestConveyorWideSwitch holds more than 64 tx completions pending at
// once — the pending set is a list, not one machine word — with frame
// sizes chosen so completion order differs from port order, and requires
// every frame to leave at the instant its slot, the pipeline latency and
// its serialisation give, in that order (slot order breaks ties).
func TestConveyorWideSwitch(t *testing.T) {
	const ports = 96
	type tx struct {
		at   sim.Time
		slot int
	}
	sched := sim.NewScheduler()
	sw := New(Config{Ports: ports}, EventDriven(), sched)
	sw.MustLoad(xconnect())
	var got, want []tx
	maxPend := 0
	slotOf := map[int]int{} // egress port -> slot index within the round
	sw.OnTransmit = func(port int, _ *packet.Packet) {
		got = append(got, tx{sched.Now(), slotOf[port]})
		maxPend = max(maxPend, len(sw.txPend)+1)
	}
	latency := sim.Time(pipelineLatency) * sw.CycleTime()
	for round := 0; round < 3; round++ {
		t0 := sched.Now()
		var roundWant []tx
		for p := 0; p < ports; p++ {
			data := frame(1500-13*((p*37)%ports), 1, 2)
			sw.Inject(p, data)
			slotOf[p^1] = p
			ser := sw.Config().LineRate.ByteTime(len(data) + WireOverhead)
			roundWant = append(roundWant, tx{t0 + sim.Time(p)*sw.CycleTime() + latency + ser, p})
		}
		sort.Slice(roundWant, func(i, j int) bool {
			a, b := roundWant[i], roundWant[j]
			return a.at < b.at || (a.at == b.at && a.slot < b.slot)
		})
		want = append(want, roundWant...)
		sched.Run(t0 + 20*sim.Microsecond)
	}
	if maxPend <= 64 {
		t.Fatalf("at most %d tx completions pending at once; the test needs more than 64", maxPend)
	}
	if len(got) != len(want) {
		t.Fatalf("transmitted %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transmit %d: slot %d left at %v, want slot %d at %v", i, got[i].slot, got[i].at, want[i].slot, want[i].at)
		}
	}
}
