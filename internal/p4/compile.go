package p4

// The closure-lowering backend. Instantiate (interp.go) calls into this
// file to turn a checked µP4 control body into a tree of specialized Go
// closures, so steady-state packet events run pre-resolved code instead
// of walking the AST:
//
//   - constant subexpressions fold at compile time (same applyBin as the
//     checker, with the interpreter's division-by-zero-yields-zero rule),
//     and if-branches whose condition folds compile only the taken side;
//   - header/metadata reads become one specialized closure per field,
//     with the layer-valid check inlined (no fieldID switch per event);
//   - width masks come precomputed by the checker (RegisterDecl.mask,
//     AssignStmt.mask) and are baked into the closures, elided entirely
//     when they cover the full 64-bit word;
//   - externs (registers, counters, tables) and table key extractors are
//     bound to their pisa objects once at instantiate time;
//   - statement lists fuse into fixed-arity chains so the common short
//     bodies avoid slice iteration;
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
// context (Program.Apply and Table.Apply always supply one); only
// instantiate-time constant evaluation passes nil, and that path uses
// the interpreter.
type exprFn func(ctx *pisa.Context, frame []uint64) uint64

// stmtFn is a compiled statement; it reports whether a return statement
// ended the enclosing apply block.
type stmtFn func(ctx *pisa.Context, frame []uint64) bool

// foldExpr evaluates e at compile time when its value is fully
// determined by constants, applying the interpreter's runtime
// conventions (division by zero yields zero, shift counts mask to six
// bits, booleans are 0/1). µP4 expressions are pure, so folding a
// decisive short-circuit operand is exact.
func foldExpr(e Expr) (uint64, bool) {
	switch x := e.(type) {
	case *NumExpr:
		return x.Val, true
	case *IdentExpr:
		if x.kind == identConst {
			return x.val, true
		}
	case *UnaryExpr:
		v, ok := foldExpr(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case tokMinus:
			return -v, true
		case tokTilde:
			return ^v, true
		default: // tokBang
			return b2u(v == 0), true
		}
	case *BinExpr:
		l, lok := foldExpr(x.L)
		if lok && x.Op == tokAndAnd && l == 0 {
			return 0, true
		}
		if lok && x.Op == tokOrOr && l != 0 {
			return 1, true
		}
		r, rok := foldExpr(x.R)
		if !lok || !rok {
			return 0, false
		}
		v, err := applyBin(x.Op, l, r)
		if err != nil {
			return 0, true // division by zero yields zero at run time
		}
		return v, true
	case *CallExpr:
		a, aok := foldExpr(x.Args[0])
		b, bok := foldExpr(x.Args[1])
		if !aok || !bok {
			return 0, false
		}
		switch x.Name {
		case "min":
			if a < b {
				return a, true
			}
			return b, true
		case "max":
			if a > b {
				return a, true
			}
			return b, true
		default: // ssub
			if a < b {
				return 0, true
			}
			return a - b, true
		}
	}
	return 0, false
}

// compileExpr lowers an expression to a specialized closure.
func (inst *Instance) compileExpr(e Expr) exprFn {
	if v, ok := foldExpr(e); ok {
		return func(*pisa.Context, []uint64) uint64 { return v }
	}
	switch x := e.(type) {
	case *IdentExpr:
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
	// NumExpr and constant identifiers fold above; anything else would be
	// a checker bug surfacing here.
	return func(*pisa.Context, []uint64) uint64 { return 0 }
}

// slotOf reports whether e is a plain local/param load and its slot.
func slotOf(e Expr) (int, bool) {
	if id, ok := e.(*IdentExpr); ok && id.kind == identLocal {
		return id.slot, true
	}
	return 0, false
}

// binSlotConst lowers `local op constant` to a single closure with no
// inner calls — the hottest shape in stateful programs (index masks,
// shifts, threshold compares). Returns nil for operators handled
// elsewhere.
func binSlotConst(op tokKind, slot int, rv uint64) exprFn {
	switch op {
	case tokPlus:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] + rv }
	case tokMinus:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] - rv }
	case tokStar:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] * rv }
	case tokSlash:
		if rv == 0 {
			return func(*pisa.Context, []uint64) uint64 { return 0 }
		}
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] / rv }
	case tokPercent:
		if rv == 0 {
			return func(*pisa.Context, []uint64) uint64 { return 0 }
		}
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] % rv }
	case tokAmp:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] & rv }
	case tokPipe:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] | rv }
	case tokCaret:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] ^ rv }
	case tokShl:
		sh := rv & 63
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] << sh }
	case tokShr:
		sh := rv & 63
		return func(_ *pisa.Context, f []uint64) uint64 { return f[slot] >> sh }
	case tokEq:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[slot] == rv) }
	case tokNeq:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[slot] != rv) }
	case tokLAngle:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[slot] < rv) }
	case tokRAngle:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[slot] > rv) }
	case tokLe:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[slot] <= rv) }
	case tokGe:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[slot] >= rv) }
	}
	return nil
}

// binSlotSlot lowers `local op local` to a single closure.
func binSlotSlot(op tokKind, a, b int) exprFn {
	switch op {
	case tokPlus:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] + f[b] }
	case tokMinus:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] - f[b] }
	case tokStar:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] * f[b] }
	case tokSlash:
		return func(_ *pisa.Context, f []uint64) uint64 {
			if f[b] == 0 {
				return 0
			}
			return f[a] / f[b]
		}
	case tokPercent:
		return func(_ *pisa.Context, f []uint64) uint64 {
			if f[b] == 0 {
				return 0
			}
			return f[a] % f[b]
		}
	case tokAmp:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] & f[b] }
	case tokPipe:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] | f[b] }
	case tokCaret:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] ^ f[b] }
	case tokShl:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] << (f[b] & 63) }
	case tokShr:
		return func(_ *pisa.Context, f []uint64) uint64 { return f[a] >> (f[b] & 63) }
	case tokEq:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[a] == f[b]) }
	case tokNeq:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[a] != f[b]) }
	case tokLAngle:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[a] < f[b]) }
	case tokRAngle:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[a] > f[b]) }
	case tokLe:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[a] <= f[b]) }
	case tokGe:
		return func(_ *pisa.Context, f []uint64) uint64 { return b2u(f[a] >= f[b]) }
	}
	return nil
}

// binSlotExpr lowers `local op <expr>`, reading the left operand
// directly from the frame (one inner call instead of two).
func binSlotExpr(op tokKind, slot int, r exprFn) exprFn {
	switch op {
	case tokPlus:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] + r(ctx, f) }
	case tokMinus:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] - r(ctx, f) }
	case tokStar:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] * r(ctx, f) }
	case tokSlash:
		return func(ctx *pisa.Context, f []uint64) uint64 {
			rv := r(ctx, f)
			if rv == 0 {
				return 0
			}
			return f[slot] / rv
		}
	case tokPercent:
		return func(ctx *pisa.Context, f []uint64) uint64 {
			rv := r(ctx, f)
			if rv == 0 {
				return 0
			}
			return f[slot] % rv
		}
	case tokAmp:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] & r(ctx, f) }
	case tokPipe:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] | r(ctx, f) }
	case tokCaret:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] ^ r(ctx, f) }
	case tokShl:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] << (r(ctx, f) & 63) }
	case tokShr:
		return func(ctx *pisa.Context, f []uint64) uint64 { return f[slot] >> (r(ctx, f) & 63) }
	case tokEq:
		return func(ctx *pisa.Context, f []uint64) uint64 { return b2u(f[slot] == r(ctx, f)) }
	case tokNeq:
		return func(ctx *pisa.Context, f []uint64) uint64 { return b2u(f[slot] != r(ctx, f)) }
	case tokLAngle:
		return func(ctx *pisa.Context, f []uint64) uint64 { return b2u(f[slot] < r(ctx, f)) }
	case tokRAngle:
		return func(ctx *pisa.Context, f []uint64) uint64 { return b2u(f[slot] > r(ctx, f)) }
	case tokLe:
		return func(ctx *pisa.Context, f []uint64) uint64 { return b2u(f[slot] <= r(ctx, f)) }
	case tokGe:
		return func(ctx *pisa.Context, f []uint64) uint64 { return b2u(f[slot] >= r(ctx, f)) }
	}
	return nil
}

// compileBin lowers a binary operation. Short-circuit booleans become
// direct Go control flow; leaf operands (locals, constants) bake into a
// single closure with no inner calls — the dominant shapes in stateful
// per-packet code.
func (inst *Instance) compileBin(x *BinExpr) exprFn {
	if x.Op == tokAndAnd {
		l, r := inst.compileExpr(x.L), inst.compileExpr(x.R)
		return func(ctx *pisa.Context, frame []uint64) uint64 {
			if l(ctx, frame) == 0 {
				return 0
			}
			return b2u(r(ctx, frame) != 0)
		}
	}
	if x.Op == tokOrOr {
		l, r := inst.compileExpr(x.L), inst.compileExpr(x.R)
		return func(ctx *pisa.Context, frame []uint64) uint64 {
			if l(ctx, frame) != 0 {
				return 1
			}
			return b2u(r(ctx, frame) != 0)
		}
	}
	if lSlot, ok := slotOf(x.L); ok {
		if rv, ok := foldExpr(x.R); ok {
			if fn := binSlotConst(x.Op, lSlot, rv); fn != nil {
				return fn
			}
		}
		if rSlot, ok := slotOf(x.R); ok {
			if fn := binSlotSlot(x.Op, lSlot, rSlot); fn != nil {
				return fn
			}
		}
		if fn := binSlotExpr(x.Op, lSlot, inst.compileExpr(x.R)); fn != nil {
			return fn
		}
	}
	l := inst.compileExpr(x.L)
	if rv, ok := foldExpr(x.R); ok {
		switch x.Op {
		case tokPlus:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) + rv }
		case tokMinus:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) - rv }
		case tokStar:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) * rv }
		case tokSlash:
			if rv == 0 {
				return func(*pisa.Context, []uint64) uint64 { return 0 }
			}
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) / rv }
		case tokPercent:
			if rv == 0 {
				return func(*pisa.Context, []uint64) uint64 { return 0 }
			}
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) % rv }
		case tokAmp:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) & rv }
		case tokPipe:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) | rv }
		case tokCaret:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) ^ rv }
		case tokShl:
			sh := rv & 63
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) << sh }
		case tokShr:
			sh := rv & 63
			return func(ctx *pisa.Context, frame []uint64) uint64 { return l(ctx, frame) >> sh }
		case tokEq:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) == rv) }
		case tokNeq:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) != rv) }
		case tokLAngle:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) < rv) }
		case tokRAngle:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) > rv) }
		case tokLe:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) <= rv) }
		case tokGe:
			return func(ctx *pisa.Context, frame []uint64) uint64 { return b2u(l(ctx, frame) >= rv) }
		}
	}
	r := inst.compileExpr(x.R)
	switch x.Op {
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

// compileStmts fuses a statement list into one closure. Short lists (the
// common case) get fixed-arity chains with no per-event slice iteration.
func (inst *Instance) compileStmts(stmts []Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = inst.compileStmt(s)
	}
	switch len(fns) {
	case 0:
		return func(*pisa.Context, []uint64) bool { return false }
	case 1:
		return fns[0]
	case 2:
		f0, f1 := fns[0], fns[1]
		return func(ctx *pisa.Context, frame []uint64) bool {
			if f0(ctx, frame) {
				return true
			}
			return f1(ctx, frame)
		}
	case 3:
		f0, f1, f2 := fns[0], fns[1], fns[2]
		return func(ctx *pisa.Context, frame []uint64) bool {
			if f0(ctx, frame) {
				return true
			}
			if f1(ctx, frame) {
				return true
			}
			return f2(ctx, frame)
		}
	case 4:
		f0, f1, f2, f3 := fns[0], fns[1], fns[2], fns[3]
		return func(ctx *pisa.Context, frame []uint64) bool {
			if f0(ctx, frame) {
				return true
			}
			if f1(ctx, frame) {
				return true
			}
			if f2(ctx, frame) {
				return true
			}
			return f3(ctx, frame)
		}
	default:
		return func(ctx *pisa.Context, frame []uint64) bool {
			for _, f := range fns {
				if f(ctx, frame) {
					return true
				}
			}
			return false
		}
	}
}

// assignSlotConst fuses `dst = a op constant` — assignment, operator and
// operand loads — into one closure with no inner calls. mask is the
// destination width mask (all-ones for bit<64>). Returns nil for
// operators handled elsewhere.
func assignSlotConst(dst int, mask uint64, op tokKind, a int, rv uint64) stmtFn {
	switch op {
	case tokPlus:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] + rv) & mask; return false }
	case tokMinus:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] - rv) & mask; return false }
	case tokStar:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] * rv) & mask; return false }
	case tokSlash:
		if rv == 0 {
			return func(_ *pisa.Context, f []uint64) bool { f[dst] = 0; return false }
		}
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] / rv) & mask; return false }
	case tokPercent:
		if rv == 0 {
			return func(_ *pisa.Context, f []uint64) bool { f[dst] = 0; return false }
		}
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] % rv) & mask; return false }
	case tokAmp:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = f[a] & rv & mask; return false }
	case tokPipe:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] | rv) & mask; return false }
	case tokCaret:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] ^ rv) & mask; return false }
	case tokShl:
		sh := rv & 63
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] << sh) & mask; return false }
	case tokShr:
		sh := rv & 63
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] >> sh) & mask; return false }
	case tokEq:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] == rv) & mask; return false }
	case tokNeq:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] != rv) & mask; return false }
	case tokLAngle:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] < rv) & mask; return false }
	case tokRAngle:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] > rv) & mask; return false }
	case tokLe:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] <= rv) & mask; return false }
	case tokGe:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] >= rv) & mask; return false }
	}
	return nil
}

// assignSlotSlot fuses `dst = a op b` over locals into one closure.
func assignSlotSlot(dst int, mask uint64, op tokKind, a, b int) stmtFn {
	switch op {
	case tokPlus:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] + f[b]) & mask; return false }
	case tokMinus:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] - f[b]) & mask; return false }
	case tokStar:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] * f[b]) & mask; return false }
	case tokSlash:
		return func(_ *pisa.Context, f []uint64) bool {
			if f[b] == 0 {
				f[dst] = 0
			} else {
				f[dst] = (f[a] / f[b]) & mask
			}
			return false
		}
	case tokPercent:
		return func(_ *pisa.Context, f []uint64) bool {
			if f[b] == 0 {
				f[dst] = 0
			} else {
				f[dst] = (f[a] % f[b]) & mask
			}
			return false
		}
	case tokAmp:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = f[a] & f[b] & mask; return false }
	case tokPipe:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] | f[b]) & mask; return false }
	case tokCaret:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] ^ f[b]) & mask; return false }
	case tokShl:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] << (f[b] & 63)) & mask; return false }
	case tokShr:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = (f[a] >> (f[b] & 63)) & mask; return false }
	case tokEq:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] == f[b]) & mask; return false }
	case tokNeq:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] != f[b]) & mask; return false }
	case tokLAngle:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] < f[b]) & mask; return false }
	case tokRAngle:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] > f[b]) & mask; return false }
	case tokLe:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] <= f[b]) & mask; return false }
	case tokGe:
		return func(_ *pisa.Context, f []uint64) bool { f[dst] = b2u(f[a] >= f[b]) & mask; return false }
	}
	return nil
}

func (inst *Instance) compileStmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *AssignStmt:
		slot, mask := st.slot, st.mask
		if v, ok := foldExpr(st.Expr); ok {
			v &= mask
			return func(_ *pisa.Context, frame []uint64) bool {
				frame[slot] = v
				return false
			}
		}
		if src, ok := slotOf(st.Expr); ok {
			return func(_ *pisa.Context, frame []uint64) bool {
				frame[slot] = frame[src] & mask
				return false
			}
		}
		if bin, ok := st.Expr.(*BinExpr); ok {
			if a, ok := slotOf(bin.L); ok {
				if rv, ok := foldExpr(bin.R); ok {
					if fn := assignSlotConst(slot, mask, bin.Op, a, rv); fn != nil {
						return fn
					}
				}
				if b, ok := slotOf(bin.R); ok {
					if fn := assignSlotSlot(slot, mask, bin.Op, a, b); fn != nil {
						return fn
					}
				}
			}
		}
		ex := inst.compileExpr(st.Expr)
		if mask != ^uint64(0) {
			return func(ctx *pisa.Context, frame []uint64) bool {
				frame[slot] = ex(ctx, frame) & mask
				return false
			}
		}
		return func(ctx *pisa.Context, frame []uint64) bool {
			frame[slot] = ex(ctx, frame)
			return false
		}
	case *IfStmt:
		if v, ok := foldExpr(st.Cond); ok {
			// Dead branch eliminated: compile only the taken side.
			if v != 0 {
				return inst.compileStmts(st.Then)
			}
			return inst.compileStmts(st.Else)
		}
		cond := inst.compileExpr(st.Cond)
		then := inst.compileStmts(st.Then)
		if len(st.Else) == 0 {
			return func(ctx *pisa.Context, frame []uint64) bool {
				if cond(ctx, frame) != 0 {
					return then(ctx, frame)
				}
				return false
			}
		}
		els := inst.compileStmts(st.Else)
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
		slot := st.arg0Out
		if mask := inst.regWidth[st.reg]; mask != ^uint64(0) {
			return func(ctx *pisa.Context, frame []uint64) bool {
				frame[slot] = r.Read(ctx, uint32(idx(ctx, frame))) & mask
				return false
			}
		}
		return func(ctx *pisa.Context, frame []uint64) bool {
			frame[slot] = r.Read(ctx, uint32(idx(ctx, frame)))
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
		if v, ok := foldExpr(st.Args[0]); ok {
			port := int(int64(v))
			return func(ctx *pisa.Context, _ []uint64) bool {
				ctx.EgressPort = port
				return false
			}
		}
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
	case "set_queue":
		a0 := inst.compileExpr(st.Args[0])
		return func(ctx *pisa.Context, frame []uint64) bool {
			ctx.Queue = int(a0(ctx, frame))
			return false
		}
	case "set_rank":
		a0 := inst.compileExpr(st.Args[0])
		return func(ctx *pisa.Context, frame []uint64) bool {
			ctx.Rank = a0(ctx, frame)
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
