package p4

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`const X = 0x1f; // comment
/* block
comment */ control Ingress { apply { forward(1 + 2_000); } }`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokKind{tokConst, tokIdent, tokAssign, tokNumber, tokSemi,
		tokControl, tokIdent, tokLBrace, tokApply, tokLBrace,
		tokIdent, tokLParen, tokNumber, tokPlus, tokNumber, tokRParen, tokSemi,
		tokRBrace, tokRBrace, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %d, want %d", i, kinds[i], want[i])
		}
	}
	if toks[3].num != 0x1f {
		t.Errorf("hex literal = %d", toks[3].num)
	}
	if toks[14].num != 2000 {
		t.Errorf("underscored literal = %d", toks[14].num)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("control @"); err == nil {
		t.Error("bad char accepted")
	}
	if _, err := lexAll("/* unterminated"); err == nil {
		t.Error("unterminated comment accepted")
	}
	if _, err := lexAll("const X = 0x;"); err == nil {
		t.Error("malformed hex accepted")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown control", `control Bogus { apply { drop(); } }`, "unknown control"},
		{"dup control", `control Ingress { apply {} } control Ingress { apply {} }`, "duplicate control"},
		{"no controls", `const X = 1;`, "no controls"},
		{"unknown ident", `control Ingress { apply { forward(nope); } }`, "unknown identifier"},
		{"unknown field", `control Ingress { apply { forward(hdr.bogus.x); } }`, "unknown field"},
		{"unknown primitive", `control Ingress { apply { frobnicate(); } }`, "unknown primitive"},
		{"bad width", `shared_register<bit<99>>(4) r; control Ingress { apply {} }`, "bit width"},
		{"dup var", `control Ingress { bit<8> x; bit<8> x; apply {} }`, "duplicate variable"},
		{"assign undeclared", `control Ingress { apply { x = 1; } }`, "undeclared"},
		{"table no key", `action a() {} table t { actions = { a; } } control Ingress { apply {} }`, "no key"},
		{"table bad action", `table t { key = { hdr.ip.dst : exact; } actions = { nope; } } control Ingress { apply {} }`, "unknown action"},
		{"reg bad method", `register<bit<8>>(4) r; control Ingress { apply { r.pop(1); } }`, "no method"},
		{"apply from action", `action a() { t.apply(); } table t { key = { hdr.ip.dst : exact; } actions = { a; } } control Ingress { apply {} }`, "from actions"},
		{"hash dst", `control Ingress { apply { hash(1, 2); } }`, "destination must be a local"},
		{"arity", `control Ingress { apply { forward(); } }`, "arguments"},
		{"non const size", `register<bit<8>>(hdr.ip.src) r; control Ingress { apply {} }`, "not constant"},
		{"const div zero", `const X = 4 / 0; control Ingress { apply {} }`, "division by zero"},
		{"dup register", `register<bit<8>>(4) r; register<bit<8>>(4) r; control Ingress { apply {} }`, "duplicate register"},
		{"dup counter", `counter(4) c; counter(4) c; control Ingress { apply {} }`, "duplicate counter"},
		{"dup table", `action a() {} table t { key = { hdr.ip.dst : exact; } actions = { a; } } table t { key = { hdr.ip.src : exact; } actions = { a; } } control Ingress { apply {} }`, "duplicate table"},
		{"dup action", `action a() {} action a() { drop(); } control Ingress { apply {} }`, "duplicate action"},
		{"dup const", `const X = 1; const X = 2; control Ingress { apply {} }`, "duplicate constant"},
		{"reg size zero", `register<bit<8>>(0) r; control Ingress { apply {} }`, "out of range"},
		{"reg size too big", `register<bit<8>>((1 << 24) + 1) r; control Ingress { apply {} }`, "out of range"},
		{"counter size zero", `counter(0) c; control Ingress { apply {} }`, "out of range"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("%s: compile succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantSub)
		}
	}
}

func TestConstFolding(t *testing.T) {
	c := MustCompile(`
const A = 10;
const B = A * 4 + 2;
register<bit<32>>(B) r;
control Ingress { apply {} }
`)
	inst := c.Instantiate("t", Options{})
	if got := inst.Register("r").Size(); got != 42 {
		t.Errorf("register size = %d, want 42", got)
	}
}

// runOne compiles src, loads it on an event switch, injects frames, runs,
// and returns the switch and instance.
func runOne(t *testing.T, src string, frames ...[]byte) (*core.Switch, *Instance, *sim.Scheduler) {
	t.Helper()
	inst := MustCompile(src).Instantiate("test", Options{})
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		sw.Inject(0, f)
	}
	return sw, inst, sched
}

func udpFrame(srcIP, dstIP packet.IP, size int) []byte {
	return packet.BuildFrame(packet.FrameSpec{
		Flow:     packet.Flow{Src: srcIP, Dst: dstIP, SrcPort: 7, DstPort: 8, Proto: packet.ProtoUDP},
		TotalLen: size,
	})
}

func TestSimpleForwardProgram(t *testing.T) {
	sw, _, sched := runOne(t, `
control Ingress {
    apply { forward(2); }
}`, udpFrame(1, 2, 100), udpFrame(1, 2, 100))
	var ports []int
	sw.OnTransmit = func(p int, _ *packet.Packet) { ports = append(ports, p) }
	sched.Run(sim.Millisecond)
	if len(ports) != 2 || ports[0] != 2 || ports[1] != 2 {
		t.Errorf("ports = %v", ports)
	}
}

func TestHeaderFieldAccess(t *testing.T) {
	sw, _, sched := runOne(t, `
control Ingress {
    apply {
        if (hdr.ip.valid == 1 && hdr.udp.dport == 8) {
            forward(3);
        } else {
            drop();
        }
    }
}`, udpFrame(1, 2, 100))
	var tx int
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = p }
	sched.Run(sim.Millisecond)
	if tx != 3 {
		t.Errorf("forwarded to %d, want 3", tx)
	}
}

// TestMicroburstProgram compiles the paper's §2 running example and
// checks that per-flow buffer occupancy is tracked by enqueue/dequeue
// events and that a culprit is flagged via a user event.
func TestMicroburstProgram(t *testing.T) {
	src := `
const NUM_REGS = 256;
const FLOW_THRESH = 1000;

shared_register<bit<32>>(NUM_REGS) bufSize_reg;

control Ingress {
    bit<32> bufSize;
    bit<32> flowID;
    apply {
        // The architecture computes ev.flow_id from the 5-tuple (the
        // paper initializes enq_meta.flowID in ingress); hash() remains
        // available for program-defined indices.
        hash(flowID, hdr.ip.src, hdr.ip.dst);
        bufSize_reg.read(ev.flow_id % NUM_REGS, bufSize);
        if (bufSize > FLOW_THRESH) {
            raise(flowID);  // microburst culprit!
        }
        forward(1);
    }
}

control Enqueue {
    apply { bufSize_reg.add(ev.flow_id % NUM_REGS, ev.pkt_len); }
}

control Dequeue {
    apply { bufSize_reg.add(ev.flow_id % NUM_REGS, 0 - ev.pkt_len); }
}

control UserEvent {
    apply { no_op(); }
}`
	inst := MustCompile(src).Instantiate("microburst", Options{})
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	var culprits int
	inst.Program().HandleFunc(events.UserEvent, func(ctx *pisa.Context) { culprits++ })

	// A burst of big packets from one flow: occupancy passes the
	// threshold while the burst is queued behind the 10G egress
	// (draining one 1500B frame per ~1.2us). Trailing packets of the
	// same flow arrive while the queue is still deep and read the high
	// occupancy in the ingress pipeline.
	for i := 0; i < 20; i++ {
		sw.Inject(0, udpFrame(packet.IP4(10, 0, 0, 1), packet.IP4(10, 0, 0, 2), 1500))
	}
	for i := 0; i < 10; i++ {
		at := 3*sim.Microsecond + sim.Time(i)*2*sim.Microsecond
		sched.At(at, func() {
			sw.Inject(0, udpFrame(packet.IP4(10, 0, 0, 1), packet.IP4(10, 0, 0, 2), 1500))
		})
	}
	sched.Run(10 * sim.Millisecond)

	if culprits == 0 {
		t.Error("no microburst culprit flagged")
	}
	// After draining, the occupancy register must return to zero.
	reg := inst.Register("bufSize_reg")
	for i := uint32(0); i < 256; i++ {
		if v := reg.True(i); v != 0 {
			t.Fatalf("slot %d: residual occupancy %d", i, v)
		}
	}
	st := sw.Stats()
	if st.TxPackets != 30 {
		t.Errorf("tx = %d", st.TxPackets)
	}
}

func TestTableLPMProgram(t *testing.T) {
	src := `
action set_egress(port) { forward(port); }
action drop_pkt() { drop(); }

table ipv4_lpm {
    key = { hdr.ip.dst : lpm; }
    actions = { set_egress; drop_pkt; }
    default_action = drop_pkt();
}

control Ingress {
    apply { ipv4_lpm.apply(); }
}`
	inst := MustCompile(src).Instantiate("router", Options{})
	// 10.0.0.0/8 -> port 1 ; 10.1.0.0/16 -> port 2.
	if err := inst.InstallEntry("ipv4_lpm",
		[]uint64{uint64(packet.IP4(10, 0, 0, 0))},
		[]uint64{pisa.PrefixMask(8, 32)}, 0, "set_egress", 1); err != nil {
		t.Fatal(err)
	}
	if err := inst.InstallEntry("ipv4_lpm",
		[]uint64{uint64(packet.IP4(10, 1, 0, 0))},
		[]uint64{pisa.PrefixMask(16, 32)}, 0, "set_egress", 2); err != nil {
		t.Fatal(err)
	}

	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	type rx struct{ port, len int }
	var out []rx
	sw.OnTransmit = func(p int, pkt *packet.Packet) { out = append(out, rx{p, pkt.Len()}) }

	sw.Inject(0, udpFrame(packet.IP4(1, 1, 1, 1), packet.IP4(10, 2, 0, 1), 101)) // /8 -> port 1
	sw.Inject(0, udpFrame(packet.IP4(1, 1, 1, 1), packet.IP4(10, 1, 0, 1), 102)) // /16 -> port 2
	sw.Inject(0, udpFrame(packet.IP4(1, 1, 1, 1), packet.IP4(11, 0, 0, 1), 103)) // miss -> drop
	sched.Run(sim.Millisecond)

	if len(out) != 2 {
		t.Fatalf("transmitted %d, want 2 (one dropped)", len(out))
	}
	if out[0].port != 1 || out[0].len != 101 {
		t.Errorf("first = %+v", out[0])
	}
	if out[1].port != 2 || out[1].len != 102 {
		t.Errorf("second = %+v", out[1])
	}
	if sw.Stats().PipelineDrops != 1 {
		t.Errorf("drops = %d", sw.Stats().PipelineDrops)
	}
}

func TestInstallEntryValidation(t *testing.T) {
	src := `
action a(x) { forward(x); }
action b() { drop(); }
table t { key = { hdr.ip.dst : exact; } actions = { a; } }
control Ingress { apply { t.apply(); } }`
	inst := MustCompile(src).Instantiate("x", Options{})
	if err := inst.InstallEntry("nope", []uint64{1}, nil, 0, "a", 1); err == nil {
		t.Error("unknown table accepted")
	}
	if err := inst.InstallEntry("t", []uint64{1}, nil, 0, "nope"); err == nil {
		t.Error("unknown action accepted")
	}
	if err := inst.InstallEntry("t", []uint64{1}, nil, 0, "b"); err == nil {
		t.Error("unlisted action accepted")
	}
	if err := inst.InstallEntry("t", []uint64{1}, nil, 0, "a"); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := inst.InstallEntry("t", []uint64{1}, nil, 0, "a", 5); err != nil {
		t.Errorf("valid install failed: %v", err)
	}
}

func TestTimerControlAndRegisterWrite(t *testing.T) {
	// A timer handler that resets a register slot — the CMS-reset
	// pattern from paper §1, in miniature.
	src := `
register<bit<32>>(4) cnt;

control Ingress {
    apply {
        cnt.add(0, 1);
        forward(1);
    }
}

control Timer {
    apply { cnt.write(0, 0); }
}`
	inst := MustCompile(src).Instantiate("reset", Options{})
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	if err := sw.ConfigureTimer(0, 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sw.Inject(0, udpFrame(1, 2, 100))
	}
	// All 10 arrive and count well before the first timer fires at 100us.
	sched.Run(50 * sim.Microsecond)
	reg := inst.Register("cnt")
	if got := reg.True(0); got != 10 {
		t.Fatalf("count before reset = %d, want 10", got)
	}
	sched.Run(200 * sim.Microsecond)
	if got := reg.True(0); got != 0 {
		t.Errorf("count after timer reset = %d, want 0", got)
	}
}

func TestWidthMasking(t *testing.T) {
	src := `
control Ingress {
    bit<8> x;
    apply {
        x = 300;        // masked to 8 bits = 44
        if (x == 44) { forward(1); } else { drop(); }
    }
}`
	sw, _, sched := runOne(t, src, udpFrame(1, 2, 100))
	tx := -1
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = p }
	sched.Run(sim.Millisecond)
	if tx != 1 {
		t.Error("width masking wrong")
	}
}

func TestBuiltinExprFunctions(t *testing.T) {
	src := `
control Ingress {
    bit<32> a;
    apply {
        a = min(5, 3) + max(5, 3) * 10 + ssub(3, 5);
        if (a == 53) { forward(1); } else { drop(); }
    }
}`
	sw, _, sched := runOne(t, src, udpFrame(1, 2, 100))
	tx := -1
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = p }
	sched.Run(sim.Millisecond)
	if tx != 1 {
		t.Error("builtin functions wrong")
	}
}

func TestCounterExtern(t *testing.T) {
	src := `
counter(8) c;
control Ingress {
    apply {
        c.count(std.ingress_port);
        forward(1);
    }
}`
	_, inst, sched := runOne(t, src, udpFrame(1, 2, 100), udpFrame(1, 2, 200))
	sched.Run(sim.Millisecond)
	pk, by := inst.Program().Counter("c").Value(0)
	if pk != 2 || by != 300 {
		t.Errorf("counter = %d pkts %d bytes", pk, by)
	}
}

func TestEmitReport(t *testing.T) {
	src := `
control Timer {
    apply { emit_report(2, 4, 12345, 9); }
}
control Ingress { apply { drop(); } }`
	inst := MustCompile(src).Instantiate("rep", Options{})
	inst.SetSwitchID(77)
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	sw.ConfigureTimer(0, 100*sim.Microsecond)
	var reports []packet.Report
	sw.OnTransmit = func(port int, pkt *packet.Packet) {
		if port != 2 {
			t.Errorf("report on port %d", port)
		}
		var p packet.Parser
		var dec []packet.LayerType
		if err := p.Decode(pkt.Data, &dec); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, p.Report)
	}
	sched.Run(350 * sim.Microsecond)
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	r := reports[0]
	if r.Kind != 4 || r.V0 != 12345 || r.V1 != 9 || r.Switch != 77 || r.Seq != 0 {
		t.Errorf("report = %+v", r)
	}
	if reports[2].Seq != 2 {
		t.Errorf("seq = %d", reports[2].Seq)
	}
}

func TestRecirculationProgram(t *testing.T) {
	src := `
control Ingress {
    apply {
        if (std.recirc == 0) { recirculate(); } else { forward(1); }
    }
}
control Recirc {
    apply { forward(1); }
}`
	sw, _, sched := runOne(t, src, udpFrame(1, 2, 100))
	tx := 0
	sw.OnTransmit = func(int, *packet.Packet) { tx++ }
	sched.Run(sim.Millisecond)
	if tx != 1 || sw.Stats().Recirculated != 1 {
		t.Errorf("tx=%d recirc=%d", tx, sw.Stats().Recirculated)
	}
}

func TestControlsListing(t *testing.T) {
	c := MustCompile(`control Ingress { apply {} } control Enqueue { apply {} }`)
	names := c.Controls()
	if len(names) != 2 || names[0] != "Ingress" || names[1] != "Enqueue" {
		t.Errorf("controls = %v", names)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
control Ingress {
    apply {
        if (hdr.udp.dport == 1) { forward(1); }
        else if (hdr.udp.dport == 8) { forward(2); }
        else { drop(); }
    }
}`
	sw, _, sched := runOne(t, src, udpFrame(1, 2, 100)) // dport 8
	tx := -1
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = p }
	sched.Run(sim.Millisecond)
	if tx != 2 {
		t.Errorf("else-if chain chose %d", tx)
	}
}

func TestCompileErrorPositions(t *testing.T) {
	// Errors must carry accurate line numbers for multi-line programs.
	src := `const A = 1;
control Ingress {
    apply {
        forward(B);
    }
}`
	_, err := Compile(src)
	if err == nil {
		t.Fatal("expected error")
	}
	var perr *Error
	if !errorsAs(err, &perr) {
		t.Fatalf("error type %T", err)
	}
	if perr.Pos.Line != 4 {
		t.Errorf("error at line %d, want 4: %v", perr.Pos.Line, err)
	}
}

func errorsAs(err error, target **Error) bool {
	if e, ok := err.(*Error); ok {
		*target = e
		return true
	}
	return false
}

func TestReturnStatement(t *testing.T) {
	src := `
control Ingress {
    apply {
        if (hdr.udp.dport == 8) {
            forward(2);
            return;
        }
        drop();
    }
}`
	sw, _, sched := runOne(t, src, udpFrame(1, 2, 100)) // dport 8
	tx := -1
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = p }
	sched.Run(sim.Millisecond)
	if tx != 2 {
		t.Errorf("return did not preserve the forward decision: tx=%d", tx)
	}
	// Without the matching port, control falls through to drop().
	sw2, _, sched2 := runOne(t, src, packet.BuildFrame(packet.FrameSpec{
		Flow: packet.Flow{Src: 1, Dst: 2, SrcPort: 7, DstPort: 9, Proto: packet.ProtoUDP},
	}))
	tx2 := -1
	sw2.OnTransmit = func(p int, _ *packet.Packet) { tx2 = p }
	sched2.Run(sim.Millisecond)
	if tx2 != -1 {
		t.Errorf("non-matching packet forwarded to %d, want drop", tx2)
	}
}

func TestAllFieldsReadable(t *testing.T) {
	// Exercise every hdr/ev/std field path the checker accepts; the
	// program sums them so nothing is optimized away, and forwards on a
	// field-derived port so we can observe execution.
	var fields []string
	for path := range fieldByPath {
		fields = append(fields, path)
	}
	src := "control Ingress {\n    bit<64> acc;\n    apply {\n"
	for _, f := range fields {
		src += "        acc = acc + " + f + ";\n"
	}
	src += "        forward(1);\n    }\n}"
	sw, _, sched := runOne(t, src, udpFrame(1, 2, 100))
	tx := 0
	sw.OnTransmit = func(int, *packet.Packet) { tx++ }
	sched.Run(sim.Millisecond)
	if tx != 1 {
		t.Errorf("field-sum program did not forward (tx=%d)", tx)
	}
}

func TestTCPFieldsProgram(t *testing.T) {
	src := `
control Ingress {
    apply {
        if (hdr.tcp.valid == 1 && hdr.tcp.flags & 2 == 2) {
            forward(hdr.tcp.dport % 4);   // SYN packets by port
            return;
        }
        drop();
    }
}`
	data := packet.BuildFrame(packet.FrameSpec{
		Flow:     packet.Flow{Src: 1, Dst: 2, SrcPort: 9, DstPort: 7, Proto: packet.ProtoTCP},
		TCPFlags: packet.TCPSyn,
	})
	sw, _, sched := runOne(t, src, data)
	tx := -1
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = p }
	sched.Run(sim.Millisecond)
	if tx != 3 { // 7 % 4
		t.Errorf("tx = %d, want 3", tx)
	}
}

func TestTernaryTableProgram(t *testing.T) {
	src := `
action allow(port) { forward(port); }
action deny() { drop(); }
table acl {
    key = { hdr.ip.src : ternary; hdr.udp.dport : ternary; }
    actions = { allow; deny; }
    default_action = deny();
}
control Ingress { apply { acl.apply(); } }`
	inst := MustCompile(src).Instantiate("acl", Options{})
	// Any source, dport 8 -> allow on port 2 (low priority).
	mustNil(t, inst.InstallEntry("acl",
		[]uint64{0, 8}, []uint64{0, 0xffff}, 1, "allow", 2))
	// Specific source 10.0.0.1, any port -> deny (high priority).
	mustNil(t, inst.InstallEntry("acl",
		[]uint64{uint64(packet.IP4(10, 0, 0, 1)), 0},
		[]uint64{0xffffffff, 0}, 10, "deny"))
	sched := sim.NewScheduler()
	sw := core.New(core.Config{}, core.EventDriven(), sched)
	if err := sw.Load(inst.Program()); err != nil {
		t.Fatal(err)
	}
	var tx []int
	sw.OnTransmit = func(p int, _ *packet.Packet) { tx = append(tx, p) }
	sw.Inject(0, udpFrame(packet.IP4(10, 0, 0, 2), 2, 100)) // dport 8, other src -> allow
	sw.Inject(0, udpFrame(packet.IP4(10, 0, 0, 1), 2, 100)) // denied src
	sched.Run(sim.Millisecond)
	if len(tx) != 1 || tx[0] != 2 {
		t.Errorf("tx = %v, want [2]", tx)
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestParserSyntaxErrors(t *testing.T) {
	cases := []string{
		`table t { key = { hdr.ip.dst exact; } }`,         // missing colon
		`table t { key = { hdr.ip.dst : bogus; } }`,       // bad match kind
		`control Ingress { apply { x } }`,                 // incomplete stmt
		`control Ingress { apply { if hdr.ip.ttl { } } }`, // missing parens
		`register<bit<32>>(8) r; control I { apply { } }`, // unknown control name
		`control Ingress { apply { r.read(0); } }`,        // unknown object
		`action a() { } table t { key = { hdr.ip.dst : exact; } actions = { a; } default_action = b; } control Ingress { apply {} }`,
		`shared_register<bit<0>>(4) r; control Ingress { apply {} }`,
	}
	for i, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("case %d compiled: %s", i, src)
		}
	}
}
