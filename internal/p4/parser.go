package p4

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.cur().kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, errf(p.cur().pos, "expected %s, found %q", what, p.cur().String())
	}
	return p.advance(), nil
}

// parse parses a whole file.
func parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for p.cur().kind != tokEOF {
		switch p.cur().kind {
		case tokConst:
			d, err := p.parseConst()
			if err != nil {
				return nil, err
			}
			f.Consts = append(f.Consts, d)
		case tokSharedRegister, tokRegister:
			d, err := p.parseRegister()
			if err != nil {
				return nil, err
			}
			f.Registers = append(f.Registers, d)
		case tokCounter:
			d, err := p.parseCounter()
			if err != nil {
				return nil, err
			}
			f.Counters = append(f.Counters, d)
		case tokAction:
			d, err := p.parseAction()
			if err != nil {
				return nil, err
			}
			f.Actions = append(f.Actions, d)
		case tokTable:
			d, err := p.parseTable()
			if err != nil {
				return nil, err
			}
			f.Tables = append(f.Tables, d)
		case tokControl:
			d, err := p.parseControl()
			if err != nil {
				return nil, err
			}
			f.Controls = append(f.Controls, d)
		default:
			return nil, errf(p.cur().pos, "expected declaration, found %q", p.cur().String())
		}
	}
	return f, nil
}

func (p *parser) parseConst() (*ConstDecl, error) {
	kw := p.advance() // const
	name, err := p.expect(tokIdent, "constant name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign, "'='"); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return nil, err
	}
	return &ConstDecl{Pos: kw.pos, Name: name.text, Value: val}, nil
}

// parseBitType parses `bit<N>`; the caller handles any merged '>>'.
func (p *parser) parseBitWidth() (int, error) {
	if _, err := p.expect(tokBit, "'bit'"); err != nil {
		return 0, err
	}
	if _, err := p.expect(tokLAngle, "'<'"); err != nil {
		return 0, err
	}
	n, err := p.expect(tokNumber, "bit width")
	if err != nil {
		return 0, err
	}
	if n.num == 0 || n.num > 64 {
		return 0, errf(n.pos, "bit width must be 1..64, got %d", n.num)
	}
	// The closing '>' may be merged with a following '>' into '>>' by
	// the lexer (as in shared_register<bit<32>>). Split it.
	switch p.cur().kind {
	case tokRAngle:
		p.advance()
	case tokShr:
		p.toks[p.i] = token{kind: tokRAngle, text: ">", pos: p.cur().pos}
	default:
		return 0, errf(p.cur().pos, "expected '>' after bit width")
	}
	return int(n.num), nil
}

func (p *parser) parseRegister() (*RegisterDecl, error) {
	kw := p.advance() // shared_register | register
	if _, err := p.expect(tokLAngle, "'<'"); err != nil {
		return nil, err
	}
	width, err := p.parseBitWidth()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRAngle, "'>'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	size, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "register name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return nil, err
	}
	return &RegisterDecl{Pos: kw.pos, Name: name.text, Width: width, Size: size}, nil
}

func (p *parser) parseCounter() (*CounterDecl, error) {
	kw := p.advance() // counter
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	size, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "counter name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, "';'"); err != nil {
		return nil, err
	}
	return &CounterDecl{Pos: kw.pos, Name: name.text, Size: size}, nil
}

func (p *parser) parseAction() (*ActionDecl, error) {
	kw := p.advance() // action
	name, err := p.expect(tokIdent, "action name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var params []string
	for p.cur().kind != tokRParen {
		id, err := p.expect(tokIdent, "parameter name")
		if err != nil {
			return nil, err
		}
		params = append(params, id.text)
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ActionDecl{Pos: kw.pos, Name: name.text, Params: params, Body: body}, nil
}

func (p *parser) parseTable() (*TableDecl, error) {
	kw := p.advance() // table
	name, err := p.expect(tokIdent, "table name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	d := &TableDecl{Pos: kw.pos, Name: name.text}
	for p.cur().kind != tokRBrace {
		switch p.cur().kind {
		case tokKey:
			p.advance()
			if _, err := p.expect(tokAssign, "'='"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrace, "'{'"); err != nil {
				return nil, err
			}
			for p.cur().kind != tokRBrace {
				kpos := p.cur().pos
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokColon, "':'"); err != nil {
					return nil, err
				}
				var match string
				switch p.cur().kind {
				case tokExact, tokLpm, tokTernary:
					match = p.advance().text
				default:
					return nil, errf(p.cur().pos, "expected match kind (exact/lpm/ternary)")
				}
				if _, err := p.expect(tokSemi, "';'"); err != nil {
					return nil, err
				}
				d.Keys = append(d.Keys, TableKey{Pos: kpos, Expr: e, Match: match})
			}
			p.advance() // }
		case tokActions:
			p.advance()
			if _, err := p.expect(tokAssign, "'='"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrace, "'{'"); err != nil {
				return nil, err
			}
			for p.cur().kind != tokRBrace {
				id, err := p.expect(tokIdent, "action name")
				if err != nil {
					return nil, err
				}
				d.Actions = append(d.Actions, id.text)
				if _, err := p.expect(tokSemi, "';'"); err != nil {
					return nil, err
				}
			}
			p.advance() // }
		case tokDefaultAction:
			p.advance()
			if _, err := p.expect(tokAssign, "'='"); err != nil {
				return nil, err
			}
			id, err := p.expect(tokIdent, "action name")
			if err != nil {
				return nil, err
			}
			d.DefaultAction = id.text
			if p.accept(tokLParen) {
				for p.cur().kind != tokRParen {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					d.DefaultArgs = append(d.DefaultArgs, e)
					if !p.accept(tokComma) {
						break
					}
				}
				if _, err := p.expect(tokRParen, "')'"); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tokSemi, "';'"); err != nil {
				return nil, err
			}
		default:
			return nil, errf(p.cur().pos, "unexpected %q in table body", p.cur().String())
		}
	}
	p.advance() // }
	return d, nil
}

func (p *parser) parseControl() (*ControlDecl, error) {
	kw := p.advance() // control
	name, err := p.expect(tokIdent, "control name")
	if err != nil {
		return nil, err
	}
	// Accept and ignore an optional empty parameter list for P4 flavor.
	if p.accept(tokLParen) {
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	d := &ControlDecl{Pos: kw.pos, Name: name.text}
	// Local declarations, then `apply { ... }`.
	for p.cur().kind == tokBit {
		lpos := p.cur().pos
		w, err := p.parseBitWidth()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(tokIdent, "variable name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return nil, err
		}
		d.Locals = append(d.Locals, &LocalDecl{Pos: lpos, Name: id.text, Width: w})
	}
	if _, err := p.expect(tokApply, "'apply'"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	d.Body = body
	if _, err := p.expect(tokRBrace, "'}' closing control"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.cur().kind != tokRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance() // }
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch p.cur().kind {
	case tokIf:
		pos := p.advance().pos
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Pos: pos, Cond: cond, Then: then}
		if p.accept(tokElse) {
			if p.cur().kind == tokIf {
				inner, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				st.Else = []Stmt{inner}
			} else {
				els, err := p.parseBlock()
				if err != nil {
					return nil, err
				}
				st.Else = els
			}
		}
		return st, nil
	case tokIdent:
		// assignment `x = e;`, call `f(args);`, or method `r.m(args);`
		id := p.advance()
		switch p.cur().kind {
		case tokAssign:
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi, "';'"); err != nil {
				return nil, err
			}
			return &AssignStmt{Pos: id.pos, Name: id.text, Expr: e}, nil
		case tokLParen:
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi, "';'"); err != nil {
				return nil, err
			}
			return &CallStmt{Pos: id.pos, Method: id.text, Args: args}, nil
		case tokDot:
			p.advance()
			var m token
			// "apply" lexes as a keyword; allow tbl.apply().
			if p.cur().kind == tokApply {
				m = p.advance()
			} else {
				var err error
				m, err = p.expect(tokIdent, "method name")
				if err != nil {
					return nil, err
				}
			}
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi, "';'"); err != nil {
				return nil, err
			}
			return &CallStmt{Pos: id.pos, Recv: id.text, Method: m.text, Args: args}, nil
		default:
			return nil, errf(p.cur().pos, "expected '=', '(' or '.' after %q", id.text)
		}
	case tokReturn:
		pos := p.advance().pos
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: pos}, nil
	case tokApply:
		return nil, errf(p.cur().pos, "nested apply blocks are not allowed")
	}
	return nil, errf(p.cur().pos, "expected statement, found %q", p.cur().String())
}

func (p *parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var args []Expr
	for p.cur().kind != tokRParen {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return args, nil
}

// Operator precedence, lowest first. Bitwise operators bind tighter
// than comparisons (the P4-16/Go rule, not C's), so
// `flags & 2 == 2` parses as `(flags & 2) == 2`.
var binPrec = map[tokKind]int{
	tokOrOr:   1,
	tokAndAnd: 2,
	tokEq:     3, tokNeq: 3,
	tokLAngle: 4, tokRAngle: 4, tokLe: 4, tokGe: 4,
	tokPipe:  5,
	tokCaret: 6,
	tokAmp:   7,
	tokShl:   8, tokShr: 8,
	tokPlus: 9, tokMinus: 9,
	tokStar: 10, tokSlash: 10, tokPercent: 10,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().kind
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		pos := p.advance().pos
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Pos: pos, Op: op, L: lhs, R: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().kind {
	case tokMinus, tokBang, tokTilde:
		t := p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.pos, Op: t.kind, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur().kind {
	case tokNumber:
		t := p.advance()
		return &NumExpr{Pos: t.pos, Val: t.num}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		t := p.advance()
		// Dotted field path?
		if p.cur().kind == tokDot {
			path := t.text
			for p.accept(tokDot) {
				part, err := p.expect(tokIdent, "field name")
				if err != nil {
					return nil, err
				}
				path = path + "." + part.text
			}
			return &FieldExpr{Pos: t.pos, Path: path}, nil
		}
		// Builtin function call in expression position?
		if p.cur().kind == tokLParen && isBuiltinFn(t.text) {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Pos: t.pos, Name: t.text, Args: args}, nil
		}
		return &IdentExpr{Pos: t.pos, Name: t.text}, nil
	}
	return nil, errf(p.cur().pos, "expected expression, found %q", p.cur().String())
}

func isBuiltinFn(name string) bool {
	switch name {
	case "min", "max", "ssub":
		return true
	}
	return false
}
