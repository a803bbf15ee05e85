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
					Queue:    fi % 2,
					PktLen:   len(data),
					FlowHash: uint64(fi)*2654435761 + uint64(round),
					TimerID:  round % 2,
					Up:       fi%2 == 0,
					Data:     uint64(round*31 + fi),
				}
				inst.Program().Tick(cycle)
				ctx.Reset(pkt, &ev, ev.When, cycle)
				_ = ctx.Parsed.Decode(data, &ctx.Decoded)
				inst.Program().Apply(ctx)
				fmt.Fprintf(&sb, "ev %v/%d: egress=%d q=%d rank=%d recirc=%v tos=%d pkt=%x\n",
					k, cycle, ctx.EgressPort, ctx.Queue, ctx.Rank, ctx.Recirculate, tosOf(pkt.Data), pkt.Data)
				for _, g := range ctx.Generated {
					fmt.Fprintf(&sb, "  gen port=%d data=%x\n", g.Port, g.Data)
				}
				for _, r := range ctx.Raised {
					fmt.Fprintf(&sb, "  raised kind=%v data=%d port=%d\n", r.Kind, r.Data, r.Port)
				}
				inst.Program().EndCycle()
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
// ports.
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
		"const_fold_branches": `
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
action set_port(p, q) { forward(p); set_queue(q); hits.count(p); }
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
		inst.Program().Tick(cycle)
		ctx.Reset(pkt, &events.Event{Kind: kind, PktLen: len(data), Queue: 1}, sim.Time(int64(cycle)), cycle)
		_ = ctx.Parsed.Decode(data, &ctx.Decoded)
		inst.Program().Apply(ctx)
		inst.Program().EndCycle()
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
