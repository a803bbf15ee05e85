package p4

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
)

// hazardProgram draws a random µP4 program over two shared registers: each
// control it binds reads, adds to or writes one of them.
func hazardProgram(rng *sim.RNG) (src string, directReads map[string]bool) {
	directReads = map[string]bool{}
	var b strings.Builder
	b.WriteString("shared_register<bit<32>>(4) r0;\nshared_register<bit<32>>(4) r1;\n")
	controls := []string{"Ingress", "Enqueue", "Dequeue", "Timer", "ControlEvent", "LinkChange"}
	for i, ctl := range controls {
		if i > 0 && rng.Intn(2) == 0 {
			continue
		}
		fmt.Fprintf(&b, "control %s {\n    bit<32> v;\n    apply {\n", ctl)
		for n := rng.Intn(3); n > 0; n-- {
			reg := fmt.Sprintf("r%d", rng.Intn(2))
			idx := rng.Intn(2)
			switch op := rng.Intn(3); {
			case op == 0:
				fmt.Fprintf(&b, "        %s.read(%d, v);\n", reg, idx)
				if !deferredControl(ctl) {
					directReads[reg] = true
				}
			case op == 1 || deferredControl(ctl):
				fmt.Fprintf(&b, "        %s.add(%d, 3);\n", reg, idx)
			default:
				fmt.Fprintf(&b, "        %s.write(%d, 7);\n", reg, idx)
			}
		}
		if ctl == "Ingress" {
			b.WriteString("        forward(std.ingress_port ^ 1);\n")
		} else {
			b.WriteString("        no_op();\n")
		}
		b.WriteString("    }\n}\n")
	}
	return b.String(), directReads
}

// TestAnalyzePassedMeansNoRuntimeHazard extends the single-ported-bank
// property to the paper's §7 consistency question: a program that
// Compiled.Analyze passes must show neither a stale read nor a lost
// update at run time. At every slot, each register a direct thread reads
// must hold its true value, and no direct access may be refused a port.
func TestAnalyzePassedMeansNoRuntimeHazard(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 40
	}
	rng := sim.NewRNG(7)
	passed := 0
	for i := 0; i < n; i++ {
		src, directReads := hazardProgram(rng)
		c, err := Compile(src)
		if err != nil || len(c.Analyze()) > 0 {
			continue
		}
		passed++
		inst := c.Instantiate("h", Options{})
		sched := sim.NewScheduler()
		sw := core.New(core.Config{Ports: 2}, core.EventDriven(), sched)
		sw.MustLoad(inst.Program())
		regs := inst.Program().Registers()
		var stale string
		sw.OnSlot = func(si core.SlotInfo) {
			for _, r := range regs {
				for idx := uint32(0); idx < 4 && stale == "" && directReads[r.Name()]; idx++ {
					if int64(r.Stale(idx)) != r.True(idx) {
						stale = fmt.Sprintf("cycle %d: %s[%d] reads %d, true value %d", si.Cycle, r.Name(), idx, r.Stale(idx), r.True(idx))
					}
				}
			}
		}
		if err := sw.ConfigureTimer(0, 130*sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		frame := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1), SrcPort: 1, DstPort: 2,
			Proto: packet.ProtoUDP,
		}})
		gap := (10 * sim.Gbps).ByteTime(len(frame) + core.WireOverhead)
		for k := 0; k < 400; k++ {
			at := sim.Time(k) * gap
			sched.At(at, func() { sw.Inject(0, frame); sw.Inject(1, frame) })
			if k%50 == 25 {
				up := k%100 == 75
				sched.At(at, func() { sw.SetLink(1, up); sw.TriggerControlEvent(1) })
			}
		}
		sched.Run(sim.Time(420) * gap)
		if stale != "" {
			t.Fatalf("Analyze passed, but a direct thread read a stale value: %s\n%s", stale, src)
		}
		for _, r := range regs {
			if _, conflicts := r.Metrics(); conflicts > 0 {
				t.Fatalf("Analyze passed, but %d direct updates of %s were refused a port\n%s", conflicts, r.Name(), src)
			}
		}
	}
	if passed < n/10 {
		t.Fatalf("only %d of %d random programs passed Analyze", passed, n)
	}
}
