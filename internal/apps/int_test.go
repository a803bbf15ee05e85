package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestINTTransitChainCollectsPerHopTelemetry(t *testing.T) {
	// Three transit switches in a chain; the second is congested by
	// cross traffic. The sink must see 3 hop records with the middle
	// hop reporting the deep queue.
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	var transits []*INTTransit
	var switches []*core.Switch
	for i := 0; i < 3; i++ {
		tr, prog := NewINTTransit(INTTransitConfig{SwitchID: uint32(i + 1), EgressPort: 1})
		sw := core.New(core.Config{Name: "s", QueueCapBytes: 1 << 20}, core.EventDriven(), sched)
		sw.MustLoad(prog)
		net.AddSwitch(sw)
		transits = append(transits, tr)
		switches = append(switches, sw)
	}
	src := net.NewHost("src", packet.IP4(10, 0, 0, 1))
	sink := net.NewHost("sink", packet.IP4(10, 9, 0, 1))
	net.Attach(src, switches[0], 0, 0)
	net.Connect(switches[0], 1, switches[1], 0, sim.Microsecond)
	net.Connect(switches[1], 1, switches[2], 0, sim.Microsecond)
	net.Attach(sink, switches[2], 1, 0)
	crossA := net.NewHost("crossA", packet.IP4(10, 0, 0, 2))
	crossB := net.NewHost("crossB", packet.IP4(10, 0, 0, 3))
	net.Attach(crossA, switches[1], 2, 0)
	net.Attach(crossB, switches[1], 3, 0)

	type pathObs struct {
		hops      int
		midQueue  uint32
		hopOrder  [3]uint32
		monotonic bool
	}
	var last pathObs
	var got int
	sink.OnRecv = func(data []byte) {
		recs, ok := packet.INTRecords(data)
		if !ok {
			return
		}
		got++
		last.hops = len(recs)
		if len(recs) == 3 {
			for i, r := range recs {
				last.hopOrder[i] = r.SwitchID
			}
			if recs[1].QueueBytes > last.midQueue {
				last.midQueue = recs[1].QueueBytes
			}
			last.monotonic = recs[0].TimestampNS <= recs[1].TimestampNS &&
				recs[1].TimestampNS <= recs[2].TimestampNS
		}
	}

	// Instrumented probe stream + heavy cross traffic into switch 1.
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 9, 0, 1),
		SrcPort: 7000, DstPort: packet.INTPort, Proto: packet.ProtoUDP}
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 200 * sim.Microsecond
		sched.At(at, func() {
			data := packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 200})
			inst, err := packet.INTInstrument(data)
			if err != nil {
				t.Error(err)
				return
			}
			src.Send(inst)
		})
	}
	// Two cross sources oversubscribe switch 1's egress (12G into 10G).
	gxa := workload.NewGen(sched, sim.NewRNG(1), func(d []byte) { crossA.Send(d) })
	gxa.StartCBR(workload.CBRConfig{Flow: flowN(9), Size: workload.FixedSize(1500),
		Rate: 6 * sim.Gbps, Until: 10 * sim.Millisecond})
	gxb := workload.NewGen(sched, sim.NewRNG(2), func(d []byte) { crossB.Send(d) })
	gxb.StartCBR(workload.CBRConfig{Flow: flowN(10), Size: workload.FixedSize(1500),
		Rate: 6 * sim.Gbps, Until: 10 * sim.Millisecond})

	sched.Run(15 * sim.Millisecond)

	if got == 0 {
		t.Fatal("sink received no instrumented packets")
	}
	if last.hops != 3 {
		t.Fatalf("hop records = %d, want 3", last.hops)
	}
	if last.hopOrder != [3]uint32{1, 2, 3} {
		t.Errorf("hop order = %v", last.hopOrder)
	}
	if !last.monotonic {
		t.Error("hop timestamps not monotonic")
	}
	if last.midQueue < 10000 {
		t.Errorf("middle hop peak queue = %d, want congested", last.midQueue)
	}
	if transits[1].Pushed == 0 {
		t.Error("middle switch pushed nothing")
	}
}

func TestPIEHoldsDelayNearTarget(t *testing.T) {
	sched := sim.NewScheduler()
	sw := core.New(core.Config{QueueCapBytes: 1 << 22}, core.EventDriven(), sched)
	pie, prog := NewPIE(PIEConfig{
		EgressPort: 1, TargetDelay: 200 * sim.Microsecond, Update: sim.Millisecond,
	}, sim.NewRNG(4))
	sw.MustLoad(prog)
	if err := pie.Arm(sw); err != nil {
		t.Fatal(err)
	}
	// Sustained 1.4x overload: without AQM the queue (and delay) would
	// grow to the 4MB cap (~3.4ms at 10G).
	rng := sim.NewRNG(5)
	for _, port := range []int{0, 2} {
		port := port
		g := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(port, d) })
		g.StartCBR(workload.CBRConfig{Flow: flowN(port + 1), Size: workload.FixedSize(1500),
			Rate: 7 * sim.Gbps, Until: 200 * sim.Millisecond})
	}
	sched.Run(200 * sim.Millisecond)

	if pie.Dropped == 0 {
		t.Fatal("PIE never dropped under sustained overload")
	}
	// Steady-state delay (second half of samples) must sit near the
	// target, far below the uncontrolled 3.4ms.
	p50 := pie.DelaySamples.Percentile(50)
	if p50 > 0.001 {
		t.Errorf("median estimated delay = %.0fus, want near the 200us target", p50*1e6)
	}
	if pie.prob256 == 0 && pie.Dropped < 100 {
		t.Error("controller inactive")
	}
}

func TestAFDFairDropping(t *testing.T) {
	sched := sim.NewScheduler()
	sw := core.New(core.Config{QueueCapBytes: 1 << 20}, core.EventDriven(), sched)
	afd, prog := NewAFD(AFDConfig{
		EgressPort: 1, Slots: 512, Interval: sim.Millisecond, TargetBytes: 30000,
	}, sim.NewRNG(6))
	sw.MustLoad(prog)
	if err := afd.Arm(sw); err != nil {
		t.Fatal(err)
	}
	hog := flowN(1)
	mouse := flowN(2)
	hogSlot := hog.Hash() % 512
	mouseSlot := mouse.Hash() % 512
	if hogSlot == mouseSlot {
		t.Fatal("test flows collide; pick different flows")
	}
	var hogTx, mouseTx uint64
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if f, ok := packet.FlowOf(pkt.Data); ok {
			if f.Hash()%512 == hogSlot {
				hogTx++
			} else {
				mouseTx++
			}
		}
	}
	rng := sim.NewRNG(7)
	gh := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(0, d) })
	gh.StartCBR(workload.CBRConfig{Flow: hog, Size: workload.FixedSize(1500),
		Rate: 12 * sim.Gbps, Until: 50 * sim.Millisecond})
	gm := workload.NewGen(sched, rng.Split(), func(d []byte) { sw.Inject(2, d) })
	gm.StartCBR(workload.CBRConfig{Flow: mouse, Size: workload.FixedSize(300),
		Rate: 100 * sim.Mbps, Until: 50 * sim.Millisecond})
	sched.Run(55 * sim.Millisecond)

	if afd.Dropped == 0 {
		t.Fatal("AFD never dropped under 1.2x overload")
	}
	mouseDelivery := float64(mouseTx) / float64(gm.SentPackets)
	if mouseDelivery < 0.95 {
		t.Errorf("mouse delivery = %.2f, want ~1 (only the hog should be dropped)", mouseDelivery)
	}
	hogDelivery := float64(hogTx) / float64(gh.SentPackets)
	if hogDelivery > 0.95 {
		t.Errorf("hog delivery = %.2f, want throttled", hogDelivery)
	}
}
