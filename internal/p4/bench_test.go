package p4

import (
	"testing"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
)

// Micro-benchmarks for the µP4 interpreter's per-slot cost.

func benchInstance(b *testing.B, src string) (*Instance, *pisa.Context) {
	b.Helper()
	inst := MustCompile(src).Instantiate("bench", Options{})
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
		SrcPort: 5, DstPort: 6, Proto: packet.ProtoUDP,
	}, TotalLen: 200})
	ctx := &pisa.Context{}
	ctx.Reset(&packet.Packet{Data: data}, &events.Event{Kind: events.IngressPacket, FlowHash: 77}, 0, 1)
	_ = ctx.Parsed.Decode(data, &ctx.Decoded)
	return inst, ctx
}

func BenchmarkInterpForward(b *testing.B) {
	inst, ctx := benchInstance(b, `control Ingress { apply { forward(1); } }`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Cycle = uint64(i + 1)
		inst.Program().Apply(ctx)
	}
}

func BenchmarkInterpMicroburstIngress(b *testing.B) {
	inst, ctx := benchInstance(b, Programs["microburst"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Cycle = uint64(i + 1)
		inst.Program().Tick(ctx.Cycle)
		inst.Program().Apply(ctx)
		inst.Program().EndCycle()
	}
}

// controlBenchSrc is a representative stateful control for backend
// comparison: a 4-field hash, two register accesses, an exact table hit
// with a parameterized action, a counter bump, and a threshold branch.
const controlBenchSrc = `
shared_register<bit<32>>(64) occ;
counter(8) seen;
action set_port(p) { forward(p); seen.count(p); }
table fwd {
    key = { hdr.ip.dst : exact; }
    actions = { set_port; }
}
control Ingress {
    bit<32> h; bit<32> v;
    apply {
        hash(h, hdr.ip.src, hdr.ip.dst, hdr.udp.sport, hdr.udp.dport);
        occ.read(h % 64, v);
        occ.write(h % 64, v + std.pkt_len);
        fwd.apply();
        if (v > 1000000000) { set_tos(3); }
    }
}`

func benchControl(b *testing.B, interp bool) {
	inst := MustCompile(controlBenchSrc).Instantiate("bench", Options{Interpret: interp})
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 0, 0, 2))}, nil, 0, "set_port", 1); err != nil {
		b.Fatal(err)
	}
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
		SrcPort: 5, DstPort: 6, Proto: packet.ProtoUDP,
	}, TotalLen: 200})
	ctx := &pisa.Context{}
	ctx.Reset(&packet.Packet{Data: data}, &events.Event{Kind: events.IngressPacket, FlowHash: 77}, 0, 1)
	_ = ctx.Parsed.Decode(data, &ctx.Decoded)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Cycle = uint64(i + 1)
		inst.Program().Tick(ctx.Cycle)
		inst.Program().Apply(ctx)
		inst.Program().EndCycle()
	}
}

// BenchmarkInterpControl and BenchmarkCompiledControl run the same
// control under both backends; TestCompiledApplyZeroAlloc pins the
// compiled path at 0 allocs/op.
func BenchmarkInterpControl(b *testing.B)   { benchControl(b, true) }
func BenchmarkCompiledControl(b *testing.B) { benchControl(b, false) }

func BenchmarkCompileMicroburst(b *testing.B) {
	src := Programs["microburst"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}
