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

// Differential tests for the compiled-closure backend: the AST
// interpreter is the oracle, and any observable divergence — context
// outcome, emitted frames, raised events, packet mutation, register or
// counter state — is a compiler bug.

// diffFrames builds the deterministic packet mix the differential driver
// cycles through: UDP, TCP, a bare Ethernet frame, and raw garbage.
func diffFrames() [][]byte {
	udp := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 9, 0, 2),
		SrcPort: 5000, DstPort: 53, Proto: packet.ProtoUDP,
	}, TotalLen: 220})
	udp2 := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(172, 16, 3, 4), Dst: packet.IP4(10, 9, 7, 8),
		SrcPort: 1234, DstPort: 4791, Proto: packet.ProtoUDP,
	}, TotalLen: 1500})
	tcp := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(192, 168, 1, 9), Dst: packet.IP4(10, 9, 1, 1),
		SrcPort: 443, DstPort: 39000, Proto: packet.ProtoTCP,
	}, TotalLen: 80})
	eth := make([]byte, 18)
	eth[12], eth[13] = 0x88, 0xb5
	raw := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}
	return [][]byte{udp, udp2, tcp, eth, raw}
}

// runBackend drives one instance of src through a deterministic event
// script covering every control the program binds, and returns a textual
// snapshot of everything observable: per-event context outcome, packet
// bytes after mutation, and final register/counter state.
func runBackend(tb testing.TB, src string, interp bool, install func(*Instance) error) string {
	tb.Helper()
	compiled, err := Compile(src)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	inst := compiled.Instantiate("diff", Options{Interpret: interp})
	inst.SetSwitchID(42)
	if install != nil {
		if err := install(inst); err != nil {
			tb.Fatalf("install: %v", err)
		}
	}
	if inst.Interpreted() != interp {
		tb.Fatalf("Interpreted() = %v, want %v", inst.Interpreted(), interp)
	}

	frames := diffFrames()
	kinds := inst.Program().HandledKinds()
	var sb strings.Builder
	ctx := &pisa.Context{}
	cycle := uint64(0)
	for round := 0; round < 5; round++ {
		for _, k := range kinds {
			for fi := range frames {
				cycle++
				// Fresh copy per event: set_tos/trim mutate in place and
				// the two backends must not share bytes.
				data := append([]byte(nil), frames[fi]...)
				pkt := &packet.Packet{Data: data, InPort: fi % 4}
				ev := events.Event{
					Kind:     k,
					When:     sim.Time(int64(cycle) * 100),
					Seq:      cycle,
					Port:     fi%4 - 1,
					PktLen:   int32(len(data)),
					FlowHash: uint64(fi)*2654435761 + uint64(round),
					TimerID:  int16(round % 2),
					Up:       fi%2 == 0,
					Data:     uint64(round*31 + fi),
				}
				ctx.Reset(pkt, &ev, ev.When, cycle)
				_ = ctx.Parsed.Decode(data, &ctx.Decoded)
				inst.Program().Apply(ctx)
				fmt.Fprintf(&sb, "ev %v/%d: egress=%d recirc=%v tos=%d pkt=%x\n",
					k, cycle, ctx.EgressPort, ctx.Recirculate, tosOf(pkt.Data), pkt.Data)
				for _, g := range ctx.Generated {
					fmt.Fprintf(&sb, "  gen port=%d data=%x\n", g.Port, g.Data)
				}
				for _, r := range ctx.Raised {
					fmt.Fprintf(&sb, "  raised kind=%v data=%d port=%d\n", r.Kind, r.Data, r.Port)
				}
				inst.Program().EndCycle(cycle)
			}
		}
	}
	for ri, r := range inst.regs {
		for i := 0; i < r.Size(); i++ {
			if v := r.True(uint32(i)); v != 0 {
				fmt.Fprintf(&sb, "reg[%d][%d]=%d\n", ri, i, v)
			}
		}
	}
	for ci, c := range inst.cnts {
		for i := 0; i < inst.compiled.file.Counters[ci].size; i++ {
			if p, by := c.Value(uint32(i)); p != 0 || by != 0 {
				fmt.Fprintf(&sb, "cnt[%d][%d]=%d/%d\n", ci, i, p, by)
			}
		}
	}
	for _, t := range inst.tbls {
		lookups, misses := t.Stats()
		fmt.Fprintf(&sb, "tbl %s: %d/%d\n", t.Name(), lookups, misses)
	}
	return sb.String()
}

// assertBackendsIdentical runs src under both backends and diffs the
// snapshots.
func assertBackendsIdentical(t *testing.T, name, src string, install func(*Instance) error) {
	t.Helper()
	got := runBackend(t, src, false, install)
	want := runBackend(t, src, true, install)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: backend divergence at line %d:\ncompiled: %s\ninterp:   %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: backend snapshots differ in length (%d vs %d lines)", name, len(gl), len(wl))
	}
}

// TestProgramsBackendsIdentical pins every example program to identical
// behaviour under both backends.
func TestProgramsBackendsIdentical(t *testing.T) {
	for name, src := range Programs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			var install func(*Instance) error
			if name == "router" {
				install = func(inst *Instance) error {
					if err := inst.InstallEntry("ipv4_lpm", []uint64{uint64(packet.IP4(10, 9, 0, 0))},
						[]uint64{pisa.PrefixMask(16, 32)}, 0, "set_egress", 1); err != nil {
						return err
					}
					return inst.InstallEntry("ipv4_lpm", []uint64{uint64(packet.IP4(10, 0, 0, 0))},
						[]uint64{pisa.PrefixMask(8, 32)}, 0, "set_egress", 2)
				}
			}
			assertBackendsIdentical(t, name, src, install)
		})
	}
}

// TestCompiledSemanticsEdgeCases pins the P4-ish runtime conventions the
// compiler must reproduce bit-for-bit: division by zero yielding zero,
// shift-count masking, wrapping arithmetic, short-circuit booleans,
// width masking of narrow locals and registers, and signed forward
// ports. The generated cases cover every binary operator over each
// operand shape, and statement lists of every short length with a
// return at each position.
func TestCompiledSemanticsEdgeCases(t *testing.T) {
	cases := map[string]string{
		"div_zero": `
shared_register<bit<64>>(4) out;
control Ingress {
    bit<64> z; bit<64> v;
    apply {
        z = ev.data - ev.data;
        v = 100 / z + 7 % z;
        out.write(0, v + 1);
        forward(1);
    }
}`,
		"shift_mask": `
shared_register<bit<64>>(4) out;
control Ingress {
    bit<64> v;
    apply {
        v = (1 << 65) + (ev.data << 64) + (0xff00 >> (ev.data + 66));
        out.write(0, v);
    }
}`,
		"wrap_and_width": `
shared_register<bit<8>>(4) narrow;
control Ingress {
    bit<8> v; bit<4> w;
    apply {
        v = 250 + ev.data;
        w = v * 3;
        narrow.write(ev.data % 4, v + w);
        forward(0 - 1);
    }
}`,
		"short_circuit": `
shared_register<bit<64>>(8) out;
control Ingress {
    bit<64> a;
    apply {
        a = (ev.data > 2 && 10 / (ev.data - 3) > 0) + (ev.data < 100 || hdr.ip.src / 0 == 1);
        out.add(0, a + (!ev.data) + (~ev.data & 0xf));
    }
}`,
		"const_branches": `
const ON = 1;
const OFF = 0;
shared_register<bit<32>>(4) out;
control Ingress {
    bit<32> v;
    apply {
        if (ON == 1) { v = min(3 + 4 * 2, max(9, 7)); } else { v = 999; }
        if (OFF) { out.write(0, 111); } else { out.add(1, ssub(5, v) + ssub(v, 5)); }
        forward(ON + OFF);
    }
}`,
		"signed_port": `
control Ingress {
    apply {
        if (std.ingress_port == 3) { forward(0 - 1); } else { forward(std.ingress_port); }
    }
}`,
		"div_mod_zero": `
shared_register<bit<64>>(8) out;
control Ingress {
    bit<64> a; bit<64> z; bit<64> v;
    apply {
        a = ev.data + 5;
        z = ev.data - ev.data;
        v = a / 0; out.add(0, v + 1);
        v = a % 0; out.add(1, v + 1);
        v = a / z; out.add(2, v + 1);
        v = a % z; out.add(3, v + 1);
        v = 4 / 0 + 9 % 0; out.add(4, v + 1);
        v = ev.data / 0 + ev.data % z; out.add(5, v + 1);
        v = (a + 1) / z + (a + 1) % (ev.data - ev.data); out.add(6, v + 1);
        forward(a / z + a % 0 + 1);
    }
}`,
		"assign_widths": `
shared_register<bit<8>>(4) r8;
shared_register<bit<64>>(4) r64;
control Ingress {
    bit<4> n4; bit<8> n8; bit<64> n64; bit<64> a; bit<64> b;
    apply {
        a = ev.data % 7;
        b = ev.data % 5;
        n4 = 0x1ff; n8 = 0x1ff; n64 = 0 - 1;
        r64.add(0, n4 + n8 + n64);
        n4 = a - 9; n8 = a - 9; n64 = a - 9;
        r64.add(1, n4 + n8 + n64);
        n4 = a * b + 9; n8 = a * 250; n64 = a << b;
        r64.add(2, n4 + n8 + n64);
        n4 = ev.data * 37; n8 = hdr.ip.ttl + 250; n64 = ev.data - 200;
        r64.add(3, n4 + n8 + n64);
        r8.add(ev.data % 4, 300 + ev.data);
        r8.read(ev.data % 4, n64);
        r64.read(3, n4);
        r64.read(2, n8);
        forward(n4 + n8 + n64);
    }
}`,
		"compound_const": `
const SIZE = 16;
const MASK = SIZE - 1;
shared_register<bit<32>>(SIZE) out;
control Ingress {
    bit<32> i;
    apply {
        i = ev.data & (SIZE - 1);
        out.add(i, SIZE * 2 - 1);
        out.add(ev.data % SIZE, MASK + (SIZE - 1) * 2);
        forward(SIZE - 1 - MASK);
    }
}`,
	}
	// Every binary operator over each operand shape: two locals (b is
	// sometimes zero), a local and a constant, a local and a compound
	// expression, and a header field and a constant.
	ops := map[string]string{
		"plus": "+", "minus": "-", "star": "*", "slash": "/", "percent": "%",
		"amp": "&", "pipe": "|", "caret": "^", "shl": "<<", "shr": ">>",
		"eq": "==", "neq": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">=",
		"andand": "&&", "oror": "||",
	}
	shapes := map[string]string{
		"local_local": "a %s b",
		"local_const": "a %s 3",
		"local_expr":  "a %s (ev.data %% 5)",
		"field_const": "ev.data %s 33",
	}
	for opName, op := range ops {
		for shapeName, shape := range shapes {
			cases["op_"+opName+"_"+shapeName] = fmt.Sprintf(`
shared_register<bit<64>>(4) out;
control Ingress {
    bit<64> a; bit<64> b; bit<64> v;
    apply {
        a = ev.data %% 7;
        b = ev.data %% 5;
        v = %s;
        out.add(0, v);
        forward(v);
    }
}`, fmt.Sprintf(shape, op))
		}
	}
	// Statement lists of 0-6 statements, bare and with a return first, in
	// the middle and last, both as the control body and nested in an if
	// whose return must end the whole control.
	for n := 0; n <= 6; n++ {
		for _, ret := range []string{"none", "first", "middle", "last"} {
			if n == 0 && ret != "none" {
				continue
			}
			at := map[string]int{"none": -1, "first": 0, "middle": n / 2, "last": n - 1}[ret]
			var body strings.Builder
			for i := 0; i < n; i++ {
				if i == at {
					body.WriteString(" return;")
				} else {
					fmt.Fprintf(&body, " out.add(%d, ev.data + %d);", i, i)
				}
			}
			name := fmt.Sprintf("body_%d_return_%s", n, ret)
			cases[name] = fmt.Sprintf(`
shared_register<bit<64>>(8) out;
control Ingress { apply {%s } }`, body.String())
			cases["nested_"+name] = fmt.Sprintf(`
shared_register<bit<64>>(8) out;
control Ingress { apply { if (ev.data > 60) {%s } out.add(7, 1); } }`, body.String())
		}
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			assertBackendsIdentical(t, name, src, nil)
		})
	}
}

// TestCompiledTableBackends pins table apply paths — exact and LPM keys,
// installed entries, default actions, action params — across backends.
func TestCompiledTableBackends(t *testing.T) {
	src := `
counter(16) hits;
action set_port(p, q) { forward(p); hits.count(p); hits.count(8 + q); }
action toss() { drop(); }
table fwd {
    key = { hdr.ip.dst : exact; hdr.udp.dport : exact; }
    actions = { set_port; toss; }
    default_action = toss;
}
table coarse {
    key = { hdr.ip.src : lpm; }
    actions = { set_port; }
}
control Ingress {
    apply { fwd.apply(); coarse.apply(); }
}`
	install := func(inst *Instance) error {
		if err := inst.InstallEntry("fwd",
			[]uint64{uint64(packet.IP4(10, 9, 0, 2)), 53}, nil, 0, "set_port", 3, 1); err != nil {
			return err
		}
		if err := inst.InstallEntry("fwd",
			[]uint64{uint64(packet.IP4(10, 9, 7, 8)), 4791}, nil, 0, "set_port", 2, 0); err != nil {
			return err
		}
		return inst.InstallEntry("coarse",
			[]uint64{uint64(packet.IP4(192, 168, 0, 0))}, []uint64{pisa.PrefixMask(16, 32)}, 0, "set_port", 7, 1)
	}
	assertBackendsIdentical(t, "tables", src, install)
}

// TestCompiledApplyZeroAlloc pins the compiled backend's steady-state
// packet path at zero allocations, including register access, hashing,
// and an exact table hit.
func TestCompiledApplyZeroAlloc(t *testing.T) {
	src := `
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
        if (v > 100000) { set_tos(3); }
    }
}
control Enqueue { apply { occ.add(ev.queue, ev.pkt_len); } }`
	inst := MustCompile(src).Instantiate("zeroalloc", Options{})
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 9, 0, 2))}, nil, 0, "set_port", 1); err != nil {
		t.Fatal(err)
	}
	data := packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
		Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 9, 0, 2),
		SrcPort: 5000, DstPort: 53, Proto: packet.ProtoUDP,
	}, TotalLen: 220})
	ctx := &pisa.Context{}
	pkt := &packet.Packet{Data: data}
	cycle := uint64(0)
	run := func(kind events.Kind) {
		cycle++
		ctx.Reset(pkt, &events.Event{Kind: kind, PktLen: int32(len(data))}, sim.Time(int64(cycle)), cycle)
		_ = ctx.Parsed.Decode(data, &ctx.Decoded)
		inst.Program().Apply(ctx)
		inst.Program().EndCycle(cycle)
	}
	// Warm up lazily-allocated state, then measure.
	for i := 0; i < 100; i++ {
		run(events.IngressPacket)
		run(events.BufferEnqueue)
	}
	if allocs := testing.AllocsPerRun(500, func() { run(events.IngressPacket) }); allocs != 0 {
		t.Errorf("compiled ingress path allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { run(events.BufferEnqueue) }); allocs != 0 {
		t.Errorf("compiled enqueue path allocates %v/op, want 0", allocs)
	}
}

// tosOf reads a frame's IPv4 TOS byte, or 0 for a frame without IPv4.
func tosOf(data []byte) uint8 {
	var p packet.Parser
	var layers []packet.LayerType
	_ = p.Decode(data, &layers)
	for _, l := range layers {
		if l == packet.LayerIPv4 {
			return p.IP.TOS
		}
	}
	return 0
}
