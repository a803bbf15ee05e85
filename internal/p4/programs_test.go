package p4

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

func TestAllProgramsCompile(t *testing.T) {
	for name, src := range Programs {
		if _, err := Compile(src); err != nil {
			t.Errorf("program %q does not compile: %v", name, err)
		}
	}
	if len(Programs) < 7 {
		t.Errorf("program library shrank: %d entries", len(Programs))
	}
}

func loadOn(t *testing.T, name string) (*core.Switch, *Instance, *sim.Scheduler) {
	t.Helper()
	inst := MustCompile(Programs[name]).Instantiate(name, Options{})
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	return sw, inst, sched
}

func TestProgramRateLimiter(t *testing.T) {
	sw, inst, sched := loadOn(t, "ratelimiter")
	// Timer sweeps one bucket per tick: with 256 buckets, a 2us tick
	// refills each bucket every 512us with 100B => ~195 KB/s per bucket.
	if err := sw.ConfigureTimer(0, 2*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 5, DstPort: 6, Proto: packet.ProtoUDP}
	// Offer 10x the refill rate: 1000B packets every 500us = 2 MB/s.
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 500 * sim.Microsecond
		sched.At(at, func() {
			sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1000}))
		})
	}
	var tx int
	sw.OnTransmit = func(int, *packet.Packet) { tx++ }
	sched.Run(110 * sim.Millisecond)
	// Burst (3000B) + 100ms * 195kB/s ≈ 3+19.5 packets of 1000B.
	if tx < 12 || tx > 40 {
		t.Errorf("limiter passed %d of 200 packets, want ~22 (rate-limited)", tx)
	}
	if st := sw.Stats(); st.PipelineDrops != uint64(200-tx) {
		t.Errorf("drops = %d, tx = %d", st.PipelineDrops, tx)
	}
	_ = inst
}

func TestProgramRouter(t *testing.T) {
	sw, inst, sched := loadOn(t, "router")
	if err := inst.InstallEntry("ipv4_lpm",
		[]uint64{uint64(packet.IP4(10, 0, 0, 0))},
		[]uint64{pisa.PrefixMask(8, 32)}, 0, "set_egress", 2); err != nil {
		t.Fatal(err)
	}
	var tx []int
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = append(tx, p) }
	mk := func(dst packet.IP) []byte {
		return packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
			Src: packet.IP4(1, 1, 1, 1), Dst: dst, SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
		}, TotalLen: 120})
	}
	sw.Inject(0, mk(packet.IP4(10, 5, 5, 5))) // hits /8 -> port 2
	sw.Inject(0, mk(packet.IP4(11, 0, 0, 1))) // miss -> drop
	// Non-IP frame -> drop branch.
	sw.Inject(0, packet.BuildControlFrame(packet.Broadcast, packet.MACFromUint64(1),
		&packet.Echo{Op: packet.EchoRequest}))
	sched.Run(sim.Millisecond)
	if len(tx) != 1 || tx[0] != 2 {
		t.Errorf("tx = %v, want [2]", tx)
	}
	pk, by := inst.Program().Counter("port_bytes").Value(0)
	// Both IP packets count (the table miss still falls through to the
	// counter); the non-IP frame is dropped before it.
	if pk != 2 || by != 240 {
		t.Errorf("counter = %d pkts %d bytes, want 2/240", pk, by)
	}
}

func TestProgramHeavyHitter(t *testing.T) {
	sw, inst, sched := loadOn(t, "heavyhitter")
	// Sweep fast enough to not matter within the test window.
	if err := sw.ConfigureTimer(0, 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	var hits int
	inst.Program().HandleFunc(events.UserEvent, func(*pisa.Context) { hits++ })
	heavy := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 5, DstPort: 6, Proto: packet.ProtoUDP}
	light := packet.Flow{Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 7, DstPort: 8, Proto: packet.ProtoUDP}
	// Heavy: 100 x 1500B = 150KB > 100KB threshold. Light: 10 x 100B.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 10 * sim.Microsecond
		sched.At(at, func() {
			sw.Inject(0, packet.BuildFrame(packet.FrameSpec{Flow: heavy, TotalLen: 1500}))
		})
	}
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		sched.At(at, func() {
			sw.Inject(1, packet.BuildFrame(packet.FrameSpec{Flow: light, TotalLen: 100}))
		})
	}
	sched.Run(5 * sim.Millisecond)
	if hits == 0 {
		t.Error("heavy hitter never flagged")
	}
	// The sweep must eventually zero the window.
	sched.Run(5*sim.Millisecond + 512*100*sim.Microsecond)
	reg := inst.Register("bytes_reg")
	if got := reg.True(uint32(heavy.Hash() % 512)); got != 0 {
		t.Errorf("window slot = %d after full sweep, want 0", got)
	}
}

func TestProgramLinkWatch(t *testing.T) {
	sw, _, sched := loadOn(t, "linkwatch")
	var reports []packet.Report
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port != 0 {
			return
		}
		var p packet.Parser
		var dec []packet.LayerType
		if p.Decode(pkt.Data, &dec) == nil && len(dec) == 2 && dec[1] == packet.LayerReport {
			reports = append(reports, p.Report)
		}
	}
	sched.At(sim.Millisecond, func() { sw.SetLink(2, false) })
	sched.At(2*sim.Millisecond, func() { sw.SetLink(2, true) })
	sched.Run(5 * sim.Millisecond)
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if reports[0].Kind != packet.ReportLinkStatus || reports[0].V0 != 2 || reports[0].V1 != 0 {
		t.Errorf("down report = %+v", reports[0])
	}
	if reports[1].V1 != 1 {
		t.Errorf("up report = %+v", reports[1])
	}
}

func TestProgramQueueReport(t *testing.T) {
	sw, _, sched := loadOn(t, "queuereport")
	if err := sw.ConfigureTimer(0, sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var samples []uint64
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port != 3 {
			return
		}
		var p packet.Parser
		var dec []packet.LayerType
		if p.Decode(pkt.Data, &dec) == nil && len(dec) == 2 && dec[1] == packet.LayerReport {
			samples = append(samples, p.Report.V0)
		}
	}
	// Build a standing queue on port 1: 2x10G into one 10G egress.
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	for i := 0; i < 4000; i++ {
		at := sim.Time(i) * 1230 * sim.Nanosecond
		data := packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500})
		sched.At(at, func() { sw.Inject(0, data); sw.Inject(2, data) })
	}
	sched.Run(6 * sim.Millisecond)
	if len(samples) < 4 {
		t.Fatalf("samples = %d", len(samples))
	}
	// Mid-run samples must show a deep queue (tens of KB).
	var peak uint64
	for _, s := range samples {
		if s > peak {
			peak = s
		}
	}
	if peak < 10000 {
		t.Errorf("peak reported occupancy = %d, want a deep queue", peak)
	}
}

func TestProgramECNMark(t *testing.T) {
	sw, _, sched := loadOn(t, "ecnmark")
	marks := []uint8{}
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		marks = append(marks, tosOf(pkt.Data))
	}
	// 2x overload into port 1 builds a deep queue; later packets must
	// carry a rising occupancy level in their TOS byte.
	fl := packet.Flow{Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 615 * sim.Nanosecond // ~2x line rate for 1500B
		data := packet.BuildFrame(packet.FrameSpec{Flow: fl, TotalLen: 1500})
		sched.At(at, func() { sw.Inject(0, data); sw.Inject(2, data) })
	}
	sched.Run(5 * sim.Millisecond)
	if len(marks) == 0 {
		t.Fatal("nothing delivered")
	}
	var peak uint8
	for _, m := range marks {
		if m > peak {
			peak = m
		}
	}
	if peak < 10 {
		t.Errorf("peak mark = %d, want a deep-queue level (>=10 quanta)", peak)
	}
	if marks[0] != 0 {
		t.Errorf("first packet marked %d before any congestion", marks[0])
	}
}
