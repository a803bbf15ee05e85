package p4

// The closure backend. Instantiate (interp.go) calls into this file to
// lower a checked µP4 control body to a tree of Go closures, one per AST
// node, so packet events run pre-resolved code instead of walking the
// AST:
//
//   - a number or constant identifier becomes a closure returning the
//     value the checker resolved; compile-time evaluation belongs to the
//     checker's constEval alone;
//   - each operator becomes one closure over its compiled operands, with
//     the interpreter's runtime rules (division by zero yields zero,
//     shift counts mask to six bits, booleans are 0/1);
//   - header/metadata reads become one closure per field, with the
//     layer-valid check inlined (no fieldID switch per event);
//   - width masks come precomputed by the checker (RegisterDecl.mask,
//     AssignStmt.mask) and are applied on every assignment and register
//     read or write;
//   - externs (registers, counters, tables) and table key extractors are
//     bound to their pisa objects once at instantiate time;
//   - control and action frames are preallocated per instance. Reuse is
//     safe because µP4 has no loops or recursion and a program only
//     re-enters Apply after the previous Apply returned (generated and
//     recirculated packets run on later pipeline slots).
//
// The AST interpreter (interp.go) stays as the differential oracle: both
// backends must produce byte-identical register/counter/context state
// for every program (FuzzCompiledVsInterp and the backend-identity tests
// pin this).

import (
	"repro/internal/packet"
	"repro/internal/pisa"
)

// exprFn is a compiled expression: it evaluates against the slot context
// and the control/action frame. Compiled expressions require a non-nil
// context (Program.Apply and Table.Apply always supply one); table key
// extractors pass a nil frame, which no global-scope expression reads.
type exprFn func(ctx *pisa.Context, frame []uint64) uint64

// stmtFn is a compiled statement; it reports whether a return statement
// ended the enclosing apply block.
type stmtFn func(ctx *pisa.Context, frame []uint64) bool

// compileExpr lowers an expression to a closure.
func (inst *Instance) compileExpr(e Expr) exprFn {
	switch x := e.(type) {
	case *NumExpr:
		v := x.Val
		return func(*pisa.Context, []uint64) uint64 { return v }
	case *IdentExpr:
		if x.kind == identConst {
			v := x.val
			return func(*pisa.Context, []uint64) uint64 { return v }
		}
		slot := x.slot
		return func(_ *pisa.Context, frame []uint64) uint64 { return frame[slot] }
	case *FieldExpr:
		return compileField(x.field)
	case *UnaryExpr:
		sub := inst.compileExpr(x.X)
		switch x.Op {
		case tokMinus:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return -sub(ctx, frame) }
		case tokTilde:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return ^sub(ctx, frame) }
		default: // tokBang
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(sub(ctx, frame) == 0) }
		}
	case *BinExpr:
		return inst.compileBin(x)
	case *CallExpr:
		a := inst.compileExpr(x.Args[0])
		b := inst.compileExpr(x.Args[1])
		switch x.Name {
		case "min":
			return func(ctx *pisa.Context, frame []uint64) uint64 {
				av, bv := a(ctx, frame), b(ctx, frame)
				if av < bv {
					return av
				}
				return bv
			}
		case "max":
			return func(ctx *pisa.Context, frame []uint64) uint64 {
				av, bv := a(ctx, frame), b(ctx, frame)
				if av > bv {
					return av
				}
				return bv
			}
		default: // ssub
			return func(ctx *pisa.Context, frame []uint64) uint64 {
				av, bv := a(ctx, frame), b(ctx, frame)
				if av < bv {
					return 0
				}
				return av - bv
			}
		}
	}
	// The checker admits no other expression; anything else would be a
	// checker bug surfacing here.
	return func(*pisa.Context, []uint64) uint64 { return 0 }
}

// compileBin lowers a binary operation. Short-circuit booleans become
// direct Go control flow.
func (inst *Instance) compileBin(x *BinExpr) exprFn {
	l, r := inst.compileExpr(x.L), inst.compileExpr(x.R)
	switch x.Op {
	case tokAndAnd:
		return func(ctx *pisa.Context, frame []uint64) uint64 {
			if l(ctx, frame) == 0 {
				return 0
			}
			return b2u(r(ctx, frame) != 0)
		}
	case tokOrOr:
		return func(ctx *pisa.Context, frame []uint64) uint64 {
			if l(ctx, frame) != 0 {
				return 1
			}
			return b2u(r(ctx, frame) != 0)
		}
	case tokPlus:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) + r(ctx, frame) }
	case tokMinus:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) - r(ctx, frame) }
	case tokStar:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) * r(ctx, frame) }
	case tokSlash:
		return func(ctx *pisa.Context, frame []uint64) uint64 {
			lv, rv := l(ctx, frame), r(ctx, frame)
			if rv == 0 {
				return 0
			}
			return lv / rv
		}
	case tokPercent:
		return func(ctx *pisa.Context, frame []uint64) uint64 {
			lv, rv := l(ctx, frame), r(ctx, frame)
			if rv == 0 {
				return 0
			}
			return lv % rv
		}
	case tokAmp:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) & r(ctx, frame) }
	case tokPipe:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) | r(ctx, frame) }
	case tokCaret:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) ^ r(ctx, frame) }
	case tokShl:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) << (r(ctx, frame) & 63) }
	case tokShr:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) >> (r(ctx, frame) & 63) }
	case tokEq:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) == r(ctx, frame)) }
	case tokNeq:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) != r(ctx, frame)) }
	case tokLAngle:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) < r(ctx, frame)) }
	case tokRAngle:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) > r(ctx, frame)) }
	case tokLe:
		return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) <= r(ctx, frame)) }
	default: // tokGe — the parser admits no other binary operators
		return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) >= r(ctx, frame)) }
	}
}

// compileField returns the specialized reader for one header/metadata
// field, mirroring evalField exactly (undecoded headers read as zero).
func compileField(f fieldID) exprFn {
	switch f {
	case fEthValid:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return b2u(ctx.Has(packet.LayerEthernet)) }
	case fIPValid:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return b2u(ctx.Has(packet.LayerIPv4)) }
	case fUDPValid:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return b2u(ctx.Has(packet.LayerUDP)) }
	case fTCPValid:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return b2u(ctx.Has(packet.LayerTCP)) }
	case fEthSrc:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerEthernet) {
				return 0
			}
			return ctx.Parsed.Eth.Src.Uint64()
		}
	case fEthDst:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerEthernet) {
				return 0
			}
			return ctx.Parsed.Eth.Dst.Uint64()
		}
	case fEthType:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerEthernet) {
				return 0
			}
			return uint64(ctx.Parsed.Eth.Type)
		}
	case fIPSrc:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerIPv4) {
				return 0
			}
			return uint64(ctx.Parsed.IP.Src)
		}
	case fIPDst:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerIPv4) {
				return 0
			}
			return uint64(ctx.Parsed.IP.Dst)
		}
	case fIPProto:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerIPv4) {
				return 0
			}
			return uint64(ctx.Parsed.IP.Protocol)
		}
	case fIPTTL:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerIPv4) {
				return 0
			}
			return uint64(ctx.Parsed.IP.TTL)
		}
	case fIPLen:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerIPv4) {
				return 0
			}
			return uint64(ctx.Parsed.IP.TotalLen)
		}
	case fIPTOS:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerIPv4) {
				return 0
			}
			return uint64(ctx.Parsed.IP.TOS)
		}
	case fUDPSport:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerUDP) {
				return 0
			}
			return uint64(ctx.Parsed.UDP.SrcPort)
		}
	case fUDPDport:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerUDP) {
				return 0
			}
			return uint64(ctx.Parsed.UDP.DstPort)
		}
	case fTCPSport:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerTCP) {
				return 0
			}
			return uint64(ctx.Parsed.TCP.SrcPort)
		}
	case fTCPDport:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerTCP) {
				return 0
			}
			return uint64(ctx.Parsed.TCP.DstPort)
		}
	case fTCPFlags:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if !ctx.Has(packet.LayerTCP) {
				return 0
			}
			return uint64(ctx.Parsed.TCP.Flags)
		}
	case fEvKind:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return uint64(ctx.Ev.Kind) }
	case fEvFlowID:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return ctx.Ev.FlowHash }
	case fEvPktLen:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return uint64(ctx.Ev.PktLen) }
	case fEvPort:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return uint64(uint16(int16(ctx.Ev.Port))) }
	case fEvQueue:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return uint64(ctx.Ev.Queue) }
	case fEvTimerID:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return uint64(ctx.Ev.TimerID) }
	case fEvLinkUp:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return b2u(ctx.Ev.Up) }
	case fEvData:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return ctx.Ev.Data }
	case fEvSeq:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return ctx.Ev.Seq }
	case fStdIngressPort:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if ctx.Pkt == nil {
				return 0xffff
			}
			return uint64(uint16(int16(ctx.Pkt.InPort)))
		}
	case fStdPktLen:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if ctx.Pkt == nil {
				return 0
			}
			return uint64(ctx.Pkt.Len())
		}
	case fStdNowNS:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return uint64(ctx.Now.Nanoseconds()) }
	case fStdCycle:
		return func(ctx *pisa.Context, _ []uint64) uint64 { return ctx.Cycle }
	case fStdRecirc:
		return func(ctx *pisa.Context, _ []uint64) uint64 {
			if ctx.Pkt == nil {
				return 0
			}
			return uint64(ctx.Pkt.Recirc)
		}
	}
	return func(*pisa.Context, []uint64) uint64 { return 0 }
}

// compileStmts lowers a statement list to one closure that runs the
// statements in order and stops at the first return.
func (inst *Instance) compileStmts(stmts []Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = inst.compileStmt(s)
	}
	return func(ctx *pisa.Context, frame []uint64) bool {
		for _, f := range fns {
			if f(ctx, frame) {
				return true
			}
		}
		return false
	}
}

func (inst *Instance) compileStmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *AssignStmt:
		slot, mask := st.slot, st.mask
		ex := inst.compileExpr(st.Expr)
		return func(ctx *pisa.Context, frame []uint64) bool {
			frame[slot] = ex(ctx, frame) & mask
			return false
		}
	case *IfStmt:
		cond := inst.compileExpr(st.Cond)
		then, els := inst.compileStmts(st.Then), inst.compileStmts(st.Else)
		return func(ctx *pisa.Context, frame []uint64) bool {
			if cond(ctx, frame) != 0 {
				return then(ctx, frame)
			}
			return els(ctx, frame)
		}
	case *CallStmt:
		return inst.compileCall(st)
	default: // *ReturnStmt
		return func(*pisa.Context, []uint64) bool { return true }
	}
}

// compileCall lowers extern method calls with the extern bound at
// compile (instantiate) time, and primitives to direct context mutation.
func (inst *Instance) compileCall(st *CallStmt) stmtFn {
	switch st.kind {
	case callRegRead:
		r := inst.regs[st.reg]
		idx := inst.compileExpr(st.Args[0])
		slot, mask := st.arg0Out, inst.regWidth[st.reg]
		return func(ctx *pisa.Context, frame []uint64) bool {
			frame[slot] = r.Read(ctx, uint32(idx(ctx, frame))) & mask
			return false
		}
	case callRegWrite:
		r := inst.regs[st.reg]
		idx := inst.compileExpr(st.Args[0])
		val := inst.compileExpr(st.Args[1])
		mask := inst.regWidth[st.reg]
		return func(ctx *pisa.Context, frame []uint64) bool {
			r.Write(ctx, uint32(idx(ctx, frame)), val(ctx, frame)&mask)
			return false
		}
	case callRegAdd:
		r := inst.regs[st.reg]
		idx := inst.compileExpr(st.Args[0])
		delta := inst.compileExpr(st.Args[1])
		return func(ctx *pisa.Context, frame []uint64) bool {
			r.Add(ctx, uint32(idx(ctx, frame)), int64(delta(ctx, frame)))
			return false
		}
	case callCounterCount:
		cnt := inst.cnts[st.cnt]
		idx := inst.compileExpr(st.Args[0])
		if len(st.Args) == 2 {
			n := inst.compileExpr(st.Args[1])
			return func(ctx *pisa.Context, frame []uint64) bool {
				cnt.Count(uint32(idx(ctx, frame)), int(n(ctx, frame)))
				return false
			}
		}
		return func(ctx *pisa.Context, frame []uint64) bool {
			n := 0
			if ctx.Pkt != nil {
				n = ctx.Pkt.Len()
			}
			cnt.Count(uint32(idx(ctx, frame)), n)
			return false
		}
	case callTableApply:
		t := inst.tbls[st.tbl]
		return func(ctx *pisa.Context, _ []uint64) bool {
			t.Apply(ctx)
			return false
		}
	}
	return inst.compilePrimitive(st)
}

func (inst *Instance) compilePrimitive(st *CallStmt) stmtFn {
	switch st.Method {
	case "forward":
		a0 := inst.compileExpr(st.Args[0])
		return func(ctx *pisa.Context, frame []uint64) bool {
			ctx.EgressPort = int(int64(a0(ctx, frame)))
			return false
		}
	case "drop":
		return func(ctx *pisa.Context, _ []uint64) bool {
			ctx.Drop()
			return false
		}
	case "recirculate":
		return func(ctx *pisa.Context, _ []uint64) bool {
			ctx.Recirculate = true
			return false
		}
	case "raise":
		a0 := inst.compileExpr(st.Args[0])
		return func(ctx *pisa.Context, frame []uint64) bool {
			ctx.RaiseUser(a0(ctx, frame))
			return false
		}
	case "set_tos":
		a0 := inst.compileExpr(st.Args[0])
		return func(ctx *pisa.Context, frame []uint64) bool {
			ctx.SetTOS(uint8(a0(ctx, frame)))
			return false
		}
	case "trim":
		return func(ctx *pisa.Context, _ []uint64) bool {
			ctx.Trim()
			return false
		}
	case "hash":
		fields := make([]exprFn, len(st.Args)-1)
		for i := range fields {
			fields[i] = inst.compileExpr(st.Args[i+1])
		}
		// The scratch slice is per-CallStmt and safe to reuse: Hash
		// consumes it before the closure returns, and the handler cannot
		// re-enter itself mid-statement.
		buf := make([]uint64, len(fields))
		slot := st.arg0Out
		return func(ctx *pisa.Context, frame []uint64) bool {
			for i, f := range fields {
				buf[i] = f(ctx, frame)
			}
			frame[slot] = pisa.Hash(0, buf...)
			return false
		}
	case "emit_report":
		args := make([]exprFn, len(st.Args))
		for i := range args {
			args[i] = inst.compileExpr(st.Args[i])
		}
		nArgs := len(args)
		return func(ctx *pisa.Context, frame []uint64) bool {
			port := int(args[0](ctx, frame))
			rep := &packet.Report{
				Kind:   uint8(args[1](ctx, frame)),
				Switch: inst.switchID,
				Seq:    inst.reportSeq,
			}
			inst.reportSeq++
			if nArgs > 2 {
				rep.V0 = args[2](ctx, frame)
			}
			if nArgs > 3 {
				rep.V1 = uint32(args[3](ctx, frame))
			}
			// The frame buffer must be freshly allocated: a nested Apply
			// (generated-packet fan-out) may run before the data plane
			// copies ctx.Generated, so a shared scratch buffer here would
			// corrupt in-flight reports. Emit paths are off the
			// zero-alloc steady-state pins.
			data := packet.BuildControlFrame(packet.Broadcast,
				packet.MACFromUint64(uint64(inst.switchID)), rep)
			ctx.Emit(data, port)
			return false
		}
	default: // no_op
		return func(*pisa.Context, []uint64) bool { return false }
	}
}
