package p4

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// FuzzCompile checks that arbitrary input never panics the compiler: it
// must either produce a compiled program or a positioned error. Run with
// `go test -fuzz=FuzzCompile ./internal/p4` for continuous fuzzing; the
// seed corpus below runs in ordinary test mode.
func FuzzCompile(f *testing.F) {
	for _, src := range Programs {
		f.Add(src)
	}
	f.Add("")
	f.Add("control Ingress { apply { forward(1); } }")
	f.Add("const X = ;;;")
	f.Add("shared_register<bit<32>>(10 r;")
	f.Add("control Ingress { apply { if (hdr.ip.src > } }")
	f.Add("table t { key = { } }")
	f.Add(strings.Repeat("{", 2000))
	f.Add("control Ingress { bit<64> x; apply { x = 0xfff_f + min(1,2); } }")
	f.Add("// comment only")
	f.Add("/* unterminated")
	f.Add("action a(p,q,r) { forward(p+q%r); } control Ingress { apply {} } table t { key = { hdr.ip.dst : ternary; } actions = { a; } }")
	f.Fuzz(func(t *testing.T, src string) {
		compiled, err := Compile(src)
		if err == nil && compiled == nil {
			t.Fatal("nil program without error")
		}
		if err != nil {
			// Errors must be positioned µP4 errors with a message.
			if err.Error() == "" {
				t.Fatalf("empty error message for %q", src)
			}
		}
	})
}

// FuzzInterpreter compiles a fixed register/arith program and executes it
// against fuzzed packet bytes: no input may panic the interpreter or the
// header field accessors.
func FuzzInterpreter(f *testing.F) {
	inst := MustCompile(`
shared_register<bit<16>>(32) r;
control Ingress {
    bit<16> v;
    bit<32> h;
    apply {
        hash(h, hdr.ip.src, hdr.ip.dst, hdr.udp.sport, hdr.tcp.flags);
        r.read(h % 32, v);
        r.add(h % 32, hdr.ip.len + std.pkt_len - v);
        if (hdr.ip.valid == 1 && hdr.ip.ttl > 0 && v % 7 != 3) {
            forward(hdr.eth.type % 4);
        } else {
            drop();
        }
    }
}`).Instantiate("fuzz", Options{})

	f.Add([]byte{})
	f.Add(make([]byte, 14))
	f.Add(make([]byte, 64))
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0x08, 0x00, 0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := &pisa.Context{}
		ctx.Reset(pktOf(data), &events.Event{Kind: events.IngressPacket}, 0, 1)
		_ = ctx.Parsed.Decode(data, &ctx.Decoded)
		inst.Program().Apply(ctx)
	})
}

func pktOf(data []byte) *packet.Packet {
	return &packet.Packet{Data: data, InPort: 0}
}

// FuzzCompiledVsInterp is the differential fuzz target: any µP4 source
// that compiles is executed under both backends against the fuzzed
// packet bytes and event metadata, and every observable — context
// outcome, generated frames, raised events, mutated packet bytes,
// register and counter state — must be identical.
func FuzzCompiledVsInterp(f *testing.F) {
	for _, src := range Programs {
		f.Add(src, []byte{}, uint64(5))
	}
	f.Add("control Ingress { bit<8> v; apply { v = hdr.ip.ttl * 7; forward(v % 4); } }",
		make([]byte, 64), uint64(0))
	f.Add("shared_register<bit<16>>(8) r; control Timer { bit<16> v; apply { r.read(ev.timer_id, v); r.write(ev.timer_id, v / (v - v)); } }",
		[]byte{1, 2, 3}, uint64(9))
	f.Fuzz(func(t *testing.T, src string, data []byte, evBits uint64) {
		compiled, err := Compile(src)
		if err != nil {
			t.Skip()
		}
		snap := func(interp bool) string {
			inst := compiled.Instantiate("fuzz", Options{Interpret: interp})
			inst.SetSwitchID(7)
			var sb strings.Builder
			ctx := &pisa.Context{}
			cycle := uint64(0)
			for round := 0; round < 2; round++ {
				for _, k := range inst.Program().HandledKinds() {
					cycle++
					d := append([]byte(nil), data...)
					pkt := &packet.Packet{Data: d, InPort: int(evBits % 5)}
					ev := events.Event{
						Kind: k, When: sim.Time(int64(cycle) * 10), Seq: cycle,
						Port: int(evBits%7) - 1, Queue: int(evBits % 3), PktLen: len(d),
						FlowHash: evBits * 2654435761, TimerID: int(evBits % 2),
						Up: evBits%2 == 0, Data: evBits + uint64(round),
					}
					inst.Program().Tick(cycle)
					ctx.Reset(pkt, &ev, ev.When, cycle)
					_ = ctx.Parsed.Decode(d, &ctx.Decoded)
					inst.Program().Apply(ctx)
					fmt.Fprintf(&sb, "%d %v %x|", ctx.EgressPort, ctx.Recirculate, pkt.Data)
					for _, g := range ctx.Generated {
						fmt.Fprintf(&sb, "g%d:%x|", g.Port, g.Data)
					}
					for _, r := range ctx.Raised {
						fmt.Fprintf(&sb, "r%d:%d|", r.Kind, r.Data)
					}
					inst.Program().EndCycle()
				}
			}
			// Register/counter state, sampled up to 1024 cells per extern
			// to keep huge declarations fuzz-friendly.
			for _, r := range inst.regs {
				n := r.Size()
				if n > 1024 {
					n = 1024
				}
				for i := 0; i < n; i++ {
					if v := r.True(uint32(i)); v != 0 {
						fmt.Fprintf(&sb, "R%d=%d,", i, v)
					}
				}
			}
			for ci, c := range inst.cnts {
				n := inst.compiled.file.Counters[ci].size
				if n > 1024 {
					n = 1024
				}
				for i := 0; i < n; i++ {
					if p, by := c.Value(uint32(i)); p != 0 || by != 0 {
						fmt.Fprintf(&sb, "C%d=%d/%d,", i, p, by)
					}
				}
			}
			return sb.String()
		}
		if got, want := snap(false), snap(true); got != want {
			t.Fatalf("backend divergence:\ncompiled: %s\ninterp:   %s", got, want)
		}
	})
}
