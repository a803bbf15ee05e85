package p4

import "fmt"

// fieldID enumerates the header/metadata fields a µP4 program may read.
type fieldID uint8

const (
	fInvalid fieldID = iota

	// Ethernet header.
	fEthSrc
	fEthDst
	fEthType
	fEthValid

	// IPv4 header.
	fIPSrc
	fIPDst
	fIPProto
	fIPTTL
	fIPLen
	fIPTOS
	fIPValid

	// UDP/TCP headers.
	fUDPSport
	fUDPDport
	fUDPValid
	fTCPSport
	fTCPDport
	fTCPFlags
	fTCPValid

	// Event metadata (the paper's enq_meta/deq_meta generalized).
	fEvKind
	fEvFlowID
	fEvPktLen
	fEvPort
	fEvQueue
	fEvTimerID
	fEvLinkUp
	fEvData
	fEvSeq

	// Standard (intrinsic) metadata.
	fStdIngressPort
	fStdPktLen
	fStdNowNS
	fStdCycle
	fStdRecirc
)

// fieldByPath maps dotted paths to field IDs.
var fieldByPath = map[string]fieldID{
	"hdr.eth.src":   fEthSrc,
	"hdr.eth.dst":   fEthDst,
	"hdr.eth.type":  fEthType,
	"hdr.eth.valid": fEthValid,

	"hdr.ip.src":   fIPSrc,
	"hdr.ip.dst":   fIPDst,
	"hdr.ip.proto": fIPProto,
	"hdr.ip.ttl":   fIPTTL,
	"hdr.ip.len":   fIPLen,
	"hdr.ip.tos":   fIPTOS,
	"hdr.ip.valid": fIPValid,

	"hdr.udp.sport": fUDPSport,
	"hdr.udp.dport": fUDPDport,
	"hdr.udp.valid": fUDPValid,
	"hdr.tcp.sport": fTCPSport,
	"hdr.tcp.dport": fTCPDport,
	"hdr.tcp.flags": fTCPFlags,
	"hdr.tcp.valid": fTCPValid,

	"ev.kind":     fEvKind,
	"ev.flow_id":  fEvFlowID,
	"ev.pkt_len":  fEvPktLen,
	"ev.port":     fEvPort,
	"ev.queue":    fEvQueue,
	"ev.timer_id": fEvTimerID,
	"ev.link_up":  fEvLinkUp,
	"ev.data":     fEvData,
	"ev.seq":      fEvSeq,

	"std.ingress_port": fStdIngressPort,
	"std.pkt_len":      fStdPktLen,
	"std.now_ns":       fStdNowNS,
	"std.cycle":        fStdCycle,
	"std.recirc":       fStdRecirc,
}

// primitives maps primitive statement names to their argument counts
// (min, max).
var primitives = map[string][2]int{
	"forward":     {1, 1}, // forward(port)
	"drop":        {0, 0},
	"recirculate": {0, 0},
	"raise":       {1, 1}, // raise(data) -> user event
	"hash":        {2, 8}, // hash(dst, fields...)
	"emit_report": {2, 4}, // emit_report(port, kind [, v0 [, v1]])
	"set_tos":     {1, 1}, // multi-bit ECN-style marking
	"trim":        {0, 0}, // NDP-style cut-payload
	"no_op":       {0, 0},
}

// checker resolves names and annotates the AST in place.
type checker struct {
	file   *File
	consts map[string]uint64
	regIdx map[string]int
	cntIdx map[string]int
	tblIdx map[string]int
	acts   map[string]*ActionDecl
}

// controlEventName lists the accepted control names and their meanings.
// (Mapping to events.Kind happens in interp.go to keep this file free of
// runtime imports.)
var controlNames = map[string]bool{
	"Ingress": true, "Egress": true, "Recirc": true, "Generated": true,
	"Transmitted": true, "Enqueue": true, "Dequeue": true,
	"Overflow": true, "Underflow": true, "Timer": true,
	"ControlEvent": true, "LinkChange": true, "UserEvent": true,
}

func check(f *File) error {
	c := &checker{
		file:   f,
		consts: make(map[string]uint64),
		regIdx: make(map[string]int),
		cntIdx: make(map[string]int),
		tblIdx: make(map[string]int),
		acts:   make(map[string]*ActionDecl),
	}

	// Constants first (in order; later constants may use earlier ones).
	for _, d := range f.Consts {
		if _, dup := c.consts[d.Name]; dup {
			return errf(d.Pos, "duplicate constant %q", d.Name)
		}
		v, err := c.constEval(d.Value)
		if err != nil {
			return err
		}
		d.val = v
		c.consts[d.Name] = v
	}

	for i, d := range f.Registers {
		if _, dup := c.regIdx[d.Name]; dup {
			return errf(d.Pos, "duplicate register %q", d.Name)
		}
		v, err := c.constEval(d.Size)
		if err != nil {
			return err
		}
		if v == 0 || v > 1<<24 {
			return errf(d.Pos, "register %q size %d out of range", d.Name, v)
		}
		d.size = int(v)
		d.mask = maskOf(d.Width)
		c.regIdx[d.Name] = i
	}
	for i, d := range f.Counters {
		if _, dup := c.cntIdx[d.Name]; dup {
			return errf(d.Pos, "duplicate counter %q", d.Name)
		}
		v, err := c.constEval(d.Size)
		if err != nil {
			return err
		}
		if v == 0 || v > 1<<24 {
			return errf(d.Pos, "counter %q size %d out of range", d.Name, v)
		}
		d.size = int(v)
		c.cntIdx[d.Name] = i
	}
	for _, d := range f.Actions {
		if _, dup := c.acts[d.Name]; dup {
			return errf(d.Pos, "duplicate action %q", d.Name)
		}
		c.acts[d.Name] = d
	}
	for i, d := range f.Tables {
		if _, dup := c.tblIdx[d.Name]; dup {
			return errf(d.Pos, "duplicate table %q", d.Name)
		}
		c.tblIdx[d.Name] = i
		for _, a := range d.Actions {
			if _, ok := c.acts[a]; !ok {
				return errf(d.Pos, "table %q references unknown action %q", d.Name, a)
			}
		}
		if d.DefaultAction != "" {
			if _, ok := c.acts[d.DefaultAction]; !ok {
				return errf(d.Pos, "table %q default action %q is unknown", d.Name, d.DefaultAction)
			}
		}
		if len(d.Keys) == 0 {
			return errf(d.Pos, "table %q has no key", d.Name)
		}
	}

	// Resolve action bodies (scope: params only, plus globals).
	for _, a := range f.Actions {
		scope := newScope()
		for _, p := range a.Params {
			if _, err := scope.declare(p, 64, a.Pos); err != nil {
				return err
			}
		}
		if err := c.resolveStmts(a.Body, scope, true); err != nil {
			return err
		}
	}

	// Resolve table key expressions (global scope only).
	for _, d := range f.Tables {
		scope := newScope()
		for i := range d.Keys {
			if err := c.resolveExpr(d.Keys[i].Expr, scope); err != nil {
				return err
			}
		}
		for _, e := range d.DefaultArgs {
			if err := c.resolveExpr(e, scope); err != nil {
				return err
			}
		}
	}

	// Resolve controls.
	seen := map[string]bool{}
	for _, d := range f.Controls {
		if !controlNames[d.Name] {
			return errf(d.Pos, "unknown control %q (want one of Ingress, Egress, Recirc, Generated, Transmitted, Enqueue, Dequeue, Overflow, Underflow, Timer, ControlEvent, LinkChange, UserEvent)", d.Name)
		}
		if seen[d.Name] {
			return errf(d.Pos, "duplicate control %q", d.Name)
		}
		seen[d.Name] = true
		scope := newScope()
		for _, l := range d.Locals {
			slot, err := scope.declare(l.Name, l.Width, l.Pos)
			if err != nil {
				return err
			}
			l.slot = slot
		}
		if err := c.resolveStmts(d.Body, scope, false); err != nil {
			return err
		}
		d.frameSize = scope.size()
	}
	if len(f.Controls) == 0 {
		return errf(Pos{1, 1}, "program declares no controls")
	}
	return nil
}

// maskOf returns the value mask for a bit<width> quantity. The checker
// computes it once per declaration (registers, assignment targets) so
// neither backend re-derives masks on the per-event path.
func maskOf(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// scope tracks local variable slots within a control or action.
type scope struct {
	vars  map[string]int
	width map[string]int
	n     int
}

func newScope() *scope {
	return &scope{vars: make(map[string]int), width: make(map[string]int)}
}

func (s *scope) declare(name string, width int, pos Pos) (int, error) {
	if _, dup := s.vars[name]; dup {
		return 0, errf(pos, "duplicate variable %q", name)
	}
	slot := s.n
	s.vars[name] = slot
	s.width[name] = width
	s.n++
	return slot, nil
}

func (s *scope) lookup(name string) (slot, width int, ok bool) {
	slot, ok = s.vars[name]
	return slot, s.width[name], ok
}

func (s *scope) size() int { return s.n }

// constEval evaluates a compile-time constant expression.
func (c *checker) constEval(e Expr) (uint64, error) {
	switch x := e.(type) {
	case *NumExpr:
		return x.Val, nil
	case *IdentExpr:
		if v, ok := c.consts[x.Name]; ok {
			return v, nil
		}
		return 0, errf(x.Pos, "%q is not a constant", x.Name)
	case *UnaryExpr:
		v, err := c.constEval(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case tokMinus:
			return -v, nil
		case tokTilde:
			return ^v, nil
		case tokBang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, errf(x.Pos, "bad constant unary op")
	case *BinExpr:
		l, err := c.constEval(x.L)
		if err != nil {
			return 0, err
		}
		r, err := c.constEval(x.R)
		if err != nil {
			return 0, err
		}
		v, err2 := applyBin(x.Op, l, r)
		if err2 != nil {
			return 0, errf(x.Pos, "%s", err2.Error())
		}
		return v, nil
	}
	return 0, errf(e.exprPos(), "expression is not constant")
}

// applyBin evaluates a binary operator on uint64 operands with P4-ish
// semantics (wrapping arithmetic, 0/1 booleans).
func applyBin(op tokKind, l, r uint64) (uint64, error) {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case tokPlus:
		return l + r, nil
	case tokMinus:
		return l - r, nil
	case tokStar:
		return l * r, nil
	case tokSlash:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case tokPercent:
		if r == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return l % r, nil
	case tokAmp:
		return l & r, nil
	case tokPipe:
		return l | r, nil
	case tokCaret:
		return l ^ r, nil
	case tokShl:
		return l << (r & 63), nil
	case tokShr:
		return l >> (r & 63), nil
	case tokEq:
		return b2u(l == r), nil
	case tokNeq:
		return b2u(l != r), nil
	case tokLAngle:
		return b2u(l < r), nil
	case tokRAngle:
		return b2u(l > r), nil
	case tokLe:
		return b2u(l <= r), nil
	case tokGe:
		return b2u(l >= r), nil
	case tokAndAnd:
		return b2u(l != 0 && r != 0), nil
	case tokOrOr:
		return b2u(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("bad binary operator")
}

func (c *checker) resolveStmts(stmts []Stmt, sc *scope, inAction bool) error {
	for _, s := range stmts {
		if err := c.resolveStmt(s, sc, inAction); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) resolveStmt(s Stmt, sc *scope, inAction bool) error {
	switch st := s.(type) {
	case *AssignStmt:
		slot, width, ok := sc.lookup(st.Name)
		if !ok {
			return errf(st.Pos, "assignment to undeclared variable %q", st.Name)
		}
		st.slot, st.width = slot, width
		st.mask = maskOf(width)
		return c.resolveExpr(st.Expr, sc)
	case *IfStmt:
		if err := c.resolveExpr(st.Cond, sc); err != nil {
			return err
		}
		if err := c.resolveStmts(st.Then, sc, inAction); err != nil {
			return err
		}
		return c.resolveStmts(st.Else, sc, inAction)
	case *CallStmt:
		return c.resolveCall(st, sc, inAction)
	case *ReturnStmt:
		return nil
	}
	return errf(s.stmtPos(), "unhandled statement")
}

func (c *checker) resolveCall(st *CallStmt, sc *scope, inAction bool) error {
	for _, a := range st.Args {
		// The first argument of reg.read and hash is an output local,
		// resolved specially below; resolving it as an expression too is
		// harmless (it must exist either way).
		if err := c.resolveExpr(a, sc); err != nil {
			return err
		}
	}
	if st.Recv == "" {
		arity, ok := primitives[st.Method]
		if !ok {
			return errf(st.Pos, "unknown primitive %q", st.Method)
		}
		if len(st.Args) < arity[0] || len(st.Args) > arity[1] {
			return errf(st.Pos, "%s takes %d..%d arguments, got %d", st.Method, arity[0], arity[1], len(st.Args))
		}
		st.kind = callPrimitive
		if st.Method == "hash" {
			// hash(dst, fields...) writes dst.
			id, ok := st.Args[0].(*IdentExpr)
			if !ok || id.kind != identLocal {
				return errf(st.Pos, "hash destination must be a local variable")
			}
			st.arg0Out = id.slot
		}
		return nil
	}
	// Method call on a register, counter, or table.
	if ri, ok := c.regIdx[st.Recv]; ok {
		st.reg = ri
		switch st.Method {
		case "read":
			if len(st.Args) != 2 {
				return errf(st.Pos, "%s.read(index, dst) takes 2 arguments", st.Recv)
			}
			id, ok := st.Args[1].(*IdentExpr)
			if !ok || id.kind != identLocal {
				return errf(st.Pos, "%s.read destination must be a local variable", st.Recv)
			}
			st.arg0Out = id.slot
			st.kind = callRegRead
		case "write":
			if len(st.Args) != 2 {
				return errf(st.Pos, "%s.write(index, value) takes 2 arguments", st.Recv)
			}
			st.kind = callRegWrite
		case "add":
			if len(st.Args) != 2 {
				return errf(st.Pos, "%s.add(index, delta) takes 2 arguments", st.Recv)
			}
			st.kind = callRegAdd
		default:
			return errf(st.Pos, "register %q has no method %q (read/write/add)", st.Recv, st.Method)
		}
		return nil
	}
	if ci, ok := c.cntIdx[st.Recv]; ok {
		st.cnt = ci
		if st.Method != "count" {
			return errf(st.Pos, "counter %q has no method %q (count)", st.Recv, st.Method)
		}
		if len(st.Args) < 1 || len(st.Args) > 2 {
			return errf(st.Pos, "%s.count(index [, bytes]) takes 1..2 arguments", st.Recv)
		}
		st.kind = callCounterCount
		return nil
	}
	if ti, ok := c.tblIdx[st.Recv]; ok {
		st.tbl = ti
		if st.Method != "apply" {
			return errf(st.Pos, "table %q has no method %q (apply)", st.Recv, st.Method)
		}
		if len(st.Args) != 0 {
			return errf(st.Pos, "%s.apply() takes no arguments", st.Recv)
		}
		if inAction {
			return errf(st.Pos, "tables cannot be applied from actions")
		}
		st.kind = callTableApply
		return nil
	}
	return errf(st.Pos, "unknown object %q", st.Recv)
}

func (c *checker) resolveExpr(e Expr, sc *scope) error {
	switch x := e.(type) {
	case *NumExpr:
		return nil
	case *IdentExpr:
		if slot, _, ok := sc.lookup(x.Name); ok {
			x.kind = identLocal
			x.slot = slot
			return nil
		}
		if v, ok := c.consts[x.Name]; ok {
			x.kind = identConst
			x.val = v
			return nil
		}
		return errf(x.Pos, "unknown identifier %q", x.Name)
	case *FieldExpr:
		id, ok := fieldByPath[x.Path]
		if !ok {
			return errf(x.Pos, "unknown field %q", x.Path)
		}
		x.field = id
		return nil
	case *UnaryExpr:
		return c.resolveExpr(x.X, sc)
	case *BinExpr:
		if err := c.resolveExpr(x.L, sc); err != nil {
			return err
		}
		return c.resolveExpr(x.R, sc)
	case *CallExpr:
		want := 2
		if len(x.Args) != want {
			return errf(x.Pos, "%s takes %d arguments", x.Name, want)
		}
		for _, a := range x.Args {
			if err := c.resolveExpr(a, sc); err != nil {
				return err
			}
		}
		return nil
	}
	return errf(e.exprPos(), "unhandled expression")
}
