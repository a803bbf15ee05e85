package p4

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
)

// controlKind maps µP4 control names to the data-plane events they
// handle.
var controlKind = map[string]events.Kind{
	"Ingress":      events.IngressPacket,
	"Egress":       events.EgressPacket,
	"Recirc":       events.RecirculatedPacket,
	"Generated":    events.GeneratedPacket,
	"Transmitted":  events.PacketTransmitted,
	"Enqueue":      events.BufferEnqueue,
	"Dequeue":      events.BufferDequeue,
	"Overflow":     events.BufferOverflow,
	"Underflow":    events.BufferUnderflow,
	"Timer":        events.TimerExpiration,
	"ControlEvent": events.ControlPlaneTriggered,
	"LinkChange":   events.LinkStatusChange,
	"UserEvent":    events.UserEvent,
}

// DeferredKinds are the event kinds whose shared_register updates go
// through aggregation banks (Figure 3) rather than the main register
// port: the high-frequency traffic-manager events. Low-frequency events
// (timers, link changes, control-plane and user events) access the main
// register directly, contending with packet threads for the port.
var DeferredKinds = []events.Kind{
	events.BufferEnqueue,
	events.BufferDequeue,
	events.BufferOverflow,
	events.BufferUnderflow,
	events.PacketTransmitted,
}

// Compiled is a type-checked µP4 program ready to instantiate.
type Compiled struct {
	file *File
	src  string
}

// Compile parses and checks µP4 source. A fatal consistency hazard
// (Analyze) is a check error too: the default, aggregated instantiation
// would panic on it at run time.
func Compile(src string) (*Compiled, error) {
	f, err := parse(src)
	if err != nil {
		return nil, err
	}
	if err := check(f); err != nil {
		return nil, err
	}
	c := &Compiled{file: f, src: src}
	for _, h := range c.Analyze() {
		if h.Fatal {
			return nil, &Error{Pos: h.Pos, Msg: h.String()}
		}
	}
	return c, nil
}

// MustCompile is Compile that panics on error, for tests and examples
// with literal source.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Controls lists the control (event) names the program defines.
func (c *Compiled) Controls() []string {
	var names []string
	for _, d := range c.file.Controls {
		names = append(names, d.Name)
	}
	return names
}

// Options configures instantiation.
type Options struct {
	// Interpret selects the AST-walking interpreter instead of the
	// default compiled-closure backend. The interpreter is the
	// differential oracle: both backends must produce byte-identical
	// behaviour, and keeping it reachable per instance lets tests and
	// evsim -interp pin that equivalence.
	Interpret bool
}

// Instance is a runnable instantiation of a compiled program: a
// pisa.Program with handlers executing the µP4 controls (compiled
// closures by default, the AST interpreter on request), plus the
// program's externs.
type Instance struct {
	compiled *Compiled
	prog     *pisa.Program
	interp   bool

	regs      []*pisa.SharedRegister
	regWidth  []uint64 // value mask per register (from RegisterDecl.mask)
	cnts      []*pisa.Counter
	tbls      []*pisa.Table
	actFns    map[*ActionDecl]pisa.ActionFunc // compiled actions, one per decl
	reportSeq uint32
	switchID  uint32
}

// Instantiate builds an Instance named name.
func (c *Compiled) Instantiate(name string, opts Options) *Instance {
	inst := &Instance{
		compiled: c,
		prog:     pisa.NewProgram(name),
		interp:   opts.Interpret,
		actFns:   make(map[*ActionDecl]pisa.ActionFunc),
	}
	for _, d := range c.file.Registers {
		r := pisa.NewAggregatedRegister(d.Name, d.size, DeferredKinds...)
		inst.regs = append(inst.regs, r)
		inst.regWidth = append(inst.regWidth, d.mask)
		inst.prog.AddRegister(r)
	}
	for _, d := range c.file.Counters {
		cnt := pisa.NewCounter(d.Name, d.size)
		inst.cnts = append(inst.cnts, cnt)
		inst.prog.AddCounter(cnt)
	}
	for _, d := range c.file.Tables {
		inst.tbls = append(inst.tbls, inst.buildTable(d))
	}
	for _, d := range c.file.Controls {
		// Either backend runs the body over one preallocated frame. Reuse
		// is safe because a handler only re-enters Apply after the outer
		// Apply returned (generated and recirculated packets run on later
		// slots).
		var body stmtFn
		if inst.interp {
			body = func(ctx *pisa.Context, frame []uint64) bool {
				return inst.execStmts(d.Body, ctx, frame)
			}
		} else {
			body = inst.compileStmts(d.Body)
		}
		frame := make([]uint64, d.frameSize)
		inst.prog.HandleFunc(controlKind[d.Name], func(ctx *pisa.Context) {
			for i := range frame {
				frame[i] = 0
			}
			body(ctx, frame)
		})
	}
	return inst
}

// Interpreted reports whether this instance runs on the AST interpreter
// (true) or the compiled-closure backend (false).
func (inst *Instance) Interpreted() bool { return inst.interp }

// Program returns the underlying pisa.Program to load into a switch.
func (inst *Instance) Program() *pisa.Program { return inst.prog }

// SetSwitchID sets the switch identifier stamped into emitted reports.
func (inst *Instance) SetSwitchID(id uint32) { inst.switchID = id }

// Register looks up a shared register by name (nil if absent).
func (inst *Instance) Register(name string) *pisa.SharedRegister {
	return inst.prog.Register(name)
}

// Table looks up a table by name (nil if absent).
func (inst *Instance) Table(name string) *pisa.Table { return inst.prog.Table(name) }

// buildTable constructs the pisa.Table for a declaration: the key
// function evaluates the declared key expressions against the slot
// context.
func (inst *Instance) buildTable(d *TableDecl) *pisa.Table {
	kinds := make([]pisa.MatchKind, len(d.Keys))
	for i, k := range d.Keys {
		switch k.Match {
		case "exact":
			kinds[i] = pisa.Exact
		case "lpm":
			kinds[i] = pisa.LPM
		default:
			kinds[i] = pisa.Ternary
		}
	}
	var keyFn pisa.KeyFunc
	if inst.interp {
		keys := d.Keys
		keyFn = func(ctx *pisa.Context, dst []uint64) bool {
			for i := range keys {
				dst[i] = inst.eval(keys[i].Expr, ctx, nil)
			}
			return true
		}
	} else {
		// Key extraction compiles to a flat closure array, one specialized
		// extractor per key field.
		keyFns := make([]exprFn, len(d.Keys))
		for i := range d.Keys {
			keyFns[i] = inst.compileExpr(d.Keys[i].Expr)
		}
		keyFn = func(ctx *pisa.Context, dst []uint64) bool {
			for i, f := range keyFns {
				dst[i] = f(ctx, nil)
			}
			return true
		}
	}
	t := pisa.NewTable(d.Name, kinds, keyFn)
	if d.DefaultAction != "" {
		act := inst.actionByName(d.DefaultAction)
		args := make([]uint64, len(d.DefaultArgs))
		for i, e := range d.DefaultArgs {
			args[i] = inst.eval(e, nil, nil) // default args are constants
		}
		t.SetDefault(inst.actionFunc(act), args...)
	}
	inst.prog.AddTable(t)
	return t
}

func (inst *Instance) actionByName(name string) *ActionDecl {
	for _, a := range inst.compiled.file.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// actionFunc wraps a µP4 action as a pisa.ActionFunc: the entry's params
// become the action's frame. On the compiled backend the body is lowered
// once per declaration (cached in actFns) with a preallocated frame, so
// entry hits run without allocating.
func (inst *Instance) actionFunc(a *ActionDecl) pisa.ActionFunc {
	if a == nil {
		return func(*pisa.Context, []uint64) {}
	}
	if inst.interp {
		return func(ctx *pisa.Context, params []uint64) {
			frame := make([]uint64, len(a.Params))
			copy(frame, params)
			inst.execStmts(a.Body, ctx, frame)
		}
	}
	if fn, ok := inst.actFns[a]; ok {
		return fn
	}
	body := inst.compileStmts(a.Body)
	frame := make([]uint64, len(a.Params))
	fn := pisa.ActionFunc(func(ctx *pisa.Context, params []uint64) {
		n := copy(frame, params)
		for i := n; i < len(frame); i++ {
			frame[i] = 0
		}
		body(ctx, frame)
	})
	inst.actFns[a] = fn
	return fn
}

// InstallEntry installs a table entry binding the named action with the
// given parameters. masks is nil for all-exact keys; priority 0
// auto-derives from masks.
func (inst *Instance) InstallEntry(table string, values, masks []uint64, priority int, action string, params ...uint64) error {
	t := inst.prog.Table(table)
	if t == nil {
		return fmt.Errorf("p4: no table %q", table)
	}
	a := inst.actionByName(action)
	if a == nil {
		return fmt.Errorf("p4: no action %q", action)
	}
	ok := false
	for _, td := range inst.compiled.file.Tables {
		if td.Name == table {
			for _, an := range td.Actions {
				if an == action {
					ok = true
				}
			}
		}
	}
	if !ok {
		return fmt.Errorf("p4: table %q does not list action %q", table, action)
	}
	if len(params) != len(a.Params) {
		return fmt.Errorf("p4: action %q takes %d params, got %d", action, len(a.Params), len(params))
	}
	return t.AddEntry(&pisa.Entry{
		Values:   values,
		Masks:    masks,
		Priority: priority,
		Action:   inst.actionFunc(a),
		Params:   params,
	})
}

// --- interpreter ----------------------------------------------------------

// execStmts runs stmts and reports whether a return statement ended the
// enclosing apply block.
func (inst *Instance) execStmts(stmts []Stmt, ctx *pisa.Context, frame []uint64) bool {
	for _, s := range stmts {
		if inst.execStmt(s, ctx, frame) {
			return true
		}
	}
	return false
}

func (inst *Instance) execStmt(s Stmt, ctx *pisa.Context, frame []uint64) bool {
	switch st := s.(type) {
	case *AssignStmt:
		frame[st.slot] = inst.eval(st.Expr, ctx, frame) & st.mask
	case *IfStmt:
		if inst.eval(st.Cond, ctx, frame) != 0 {
			return inst.execStmts(st.Then, ctx, frame)
		}
		return inst.execStmts(st.Else, ctx, frame)
	case *CallStmt:
		inst.execCall(st, ctx, frame)
	case *ReturnStmt:
		return true
	}
	return false
}

func (inst *Instance) execCall(st *CallStmt, ctx *pisa.Context, frame []uint64) {
	switch st.kind {
	case callPrimitive:
		inst.execPrimitive(st, ctx, frame)
	case callRegRead:
		r := inst.regs[st.reg]
		idx := uint32(inst.eval(st.Args[0], ctx, frame))
		frame[st.arg0Out] = r.Read(ctx, idx) & inst.regWidth[st.reg]
	case callRegWrite:
		r := inst.regs[st.reg]
		idx := uint32(inst.eval(st.Args[0], ctx, frame))
		r.Write(ctx, idx, inst.eval(st.Args[1], ctx, frame)&inst.regWidth[st.reg])
	case callRegAdd:
		r := inst.regs[st.reg]
		idx := uint32(inst.eval(st.Args[0], ctx, frame))
		r.Add(ctx, idx, int64(inst.eval(st.Args[1], ctx, frame)))
	case callCounterCount:
		cnt := inst.cnts[st.cnt]
		idx := uint32(inst.eval(st.Args[0], ctx, frame))
		n := 0
		if len(st.Args) == 2 {
			n = int(inst.eval(st.Args[1], ctx, frame))
		} else if ctx.Pkt != nil {
			n = ctx.Pkt.Len()
		}
		cnt.Count(idx, n)
	case callTableApply:
		inst.tbls[st.tbl].Apply(ctx)
	}
}

func (inst *Instance) execPrimitive(st *CallStmt, ctx *pisa.Context, frame []uint64) {
	argv := func(i int) uint64 { return inst.eval(st.Args[i], ctx, frame) }
	switch st.Method {
	case "forward":
		ctx.EgressPort = int(int64(argv(0)))
	case "drop":
		ctx.Drop()
	case "recirculate":
		ctx.Recirculate = true
	case "raise":
		ctx.RaiseUser(argv(0))
	case "set_tos":
		ctx.SetTOS(uint8(argv(0)))
	case "trim":
		ctx.Trim()
	case "no_op":
	case "hash":
		fields := make([]uint64, 0, 8)
		for i := 1; i < len(st.Args); i++ {
			fields = append(fields, argv(i))
		}
		frame[st.arg0Out] = pisa.Hash(0, fields...)
	case "emit_report":
		port := int(argv(0))
		rep := &packet.Report{
			Kind:   uint8(argv(1)),
			Switch: inst.switchID,
			Seq:    inst.reportSeq,
		}
		inst.reportSeq++
		if len(st.Args) > 2 {
			rep.V0 = argv(2)
		}
		if len(st.Args) > 3 {
			rep.V1 = uint32(argv(3))
		}
		data := packet.BuildControlFrame(packet.Broadcast,
			packet.MACFromUint64(uint64(inst.switchID)), rep)
		ctx.Emit(data, port)
	}
}

// eval evaluates an expression against the slot context and local frame.
func (inst *Instance) eval(e Expr, ctx *pisa.Context, frame []uint64) uint64 {
	switch x := e.(type) {
	case *NumExpr:
		return x.Val
	case *IdentExpr:
		if x.kind == identConst {
			return x.val
		}
		return frame[x.slot]
	case *FieldExpr:
		return evalField(x.field, ctx)
	case *UnaryExpr:
		v := inst.eval(x.X, ctx, frame)
		switch x.Op {
		case tokMinus:
			return -v
		case tokTilde:
			return ^v
		default: // tokBang
			if v == 0 {
				return 1
			}
			return 0
		}
	case *BinExpr:
		l := inst.eval(x.L, ctx, frame)
		// Short-circuit booleans.
		if x.Op == tokAndAnd && l == 0 {
			return 0
		}
		if x.Op == tokOrOr && l != 0 {
			return 1
		}
		r := inst.eval(x.R, ctx, frame)
		v, err := applyBin(x.Op, l, r)
		if err != nil {
			// Division by zero at run time yields zero, the P4 target
			// convention for undefined arithmetic.
			return 0
		}
		return v
	case *CallExpr:
		a := inst.eval(x.Args[0], ctx, frame)
		b := inst.eval(x.Args[1], ctx, frame)
		switch x.Name {
		case "min":
			if a < b {
				return a
			}
			return b
		case "max":
			if a > b {
				return a
			}
			return b
		default: // ssub: saturating subtract
			if a < b {
				return 0
			}
			return a - b
		}
	}
	return 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evalField reads a header/metadata field from the context. Fields of
// headers the parser did not decode read as zero, with the matching
// .valid field reading 0.
func evalField(f fieldID, ctx *pisa.Context) uint64 {
	if ctx == nil {
		return 0
	}
	switch f {
	case fEthValid:
		return b2u(ctx.Has(packet.LayerEthernet))
	case fIPValid:
		return b2u(ctx.Has(packet.LayerIPv4))
	case fUDPValid:
		return b2u(ctx.Has(packet.LayerUDP))
	case fTCPValid:
		return b2u(ctx.Has(packet.LayerTCP))
	}
	switch f {
	case fEthSrc, fEthDst, fEthType:
		if !ctx.Has(packet.LayerEthernet) {
			return 0
		}
		switch f {
		case fEthSrc:
			return ctx.Parsed.Eth.Src.Uint64()
		case fEthDst:
			return ctx.Parsed.Eth.Dst.Uint64()
		default:
			return uint64(ctx.Parsed.Eth.Type)
		}
	case fIPSrc, fIPDst, fIPProto, fIPTTL, fIPLen, fIPTOS:
		if !ctx.Has(packet.LayerIPv4) {
			return 0
		}
		ip := &ctx.Parsed.IP
		switch f {
		case fIPSrc:
			return uint64(ip.Src)
		case fIPDst:
			return uint64(ip.Dst)
		case fIPProto:
			return uint64(ip.Protocol)
		case fIPTTL:
			return uint64(ip.TTL)
		case fIPLen:
			return uint64(ip.TotalLen)
		default:
			return uint64(ip.TOS)
		}
	case fUDPSport, fUDPDport:
		if !ctx.Has(packet.LayerUDP) {
			return 0
		}
		if f == fUDPSport {
			return uint64(ctx.Parsed.UDP.SrcPort)
		}
		return uint64(ctx.Parsed.UDP.DstPort)
	case fTCPSport, fTCPDport, fTCPFlags:
		if !ctx.Has(packet.LayerTCP) {
			return 0
		}
		switch f {
		case fTCPSport:
			return uint64(ctx.Parsed.TCP.SrcPort)
		case fTCPDport:
			return uint64(ctx.Parsed.TCP.DstPort)
		default:
			return uint64(ctx.Parsed.TCP.Flags)
		}
	case fEvKind:
		return uint64(ctx.Ev.Kind)
	case fEvFlowID:
		return ctx.Ev.FlowHash
	case fEvPktLen:
		return uint64(ctx.Ev.PktLen)
	case fEvPort:
		return uint64(uint16(int16(ctx.Ev.Port)))
	case fEvQueue:
		return 0 // a port has one FIFO queue
	case fEvTimerID:
		return uint64(ctx.Ev.TimerID)
	case fEvLinkUp:
		return b2u(ctx.Ev.Up)
	case fEvData:
		return ctx.Ev.Data
	case fEvSeq:
		return ctx.Ev.Seq
	case fStdIngressPort:
		if ctx.Pkt == nil {
			return 0xffff
		}
		return uint64(uint16(int16(ctx.Pkt.InPort)))
	case fStdPktLen:
		if ctx.Pkt == nil {
			return 0
		}
		return uint64(ctx.Pkt.Len())
	case fStdNowNS:
		return uint64(ctx.Now.Nanoseconds())
	case fStdCycle:
		return ctx.Cycle
	case fStdRecirc:
		if ctx.Pkt == nil {
			return 0
		}
		return uint64(ctx.Pkt.Recirc)
	}
	return 0
}
