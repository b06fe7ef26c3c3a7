package minic

import (
	"fmt"
	"strconv"
)

// ParseError describes a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Options configures parsing.
type Options struct {
	// Defines acts like -D command-line macro definitions.
	Defines map[string]string
	// VectorLanes is the lane count of the builtin VECTOR type. If zero,
	// the VECTOR_LEN define is consulted; if that is absent, 4 lanes
	// (a 128-bit vector, as in the paper) are used.
	VectorLanes int
}

// Parse lexes and parses a MiniC translation unit and runs semantic
// analysis on it.
func Parse(src string, opts Options) (*Program, error) {
	toks, allDefines, err := LexWithDefines(src, opts.Defines)
	if err != nil {
		return nil, err
	}
	lanes := Lanes(opts.VectorLanes, allDefines)
	p := &parser{toks: toks, defines: allDefines, lanes: lanes}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog, lanes); err != nil {
		return nil, err
	}
	return prog, nil
}

// Lanes resolves the VECTOR lane count: a positive explicit count wins,
// then a VECTOR_LEN define that is a positive decimal integer, then the
// paper's 4 lanes. Malformed defines ("8x", "0") fall back to 4.
func Lanes(explicit int, defines map[string]string) int {
	if explicit > 0 {
		return explicit
	}
	if n, err := strconv.Atoi(defines["VECTOR_LEN"]); err == nil && n > 0 {
		return n
	}
	return 4
}

type parser struct {
	toks    []Token
	pos     int
	defines map[string]string
	lanes   int
	depth   int
}

// maxNestDepth bounds statement/expression nesting so that adversarial
// input (deep parentheses, unary chains, nested blocks) produces a parse
// error instead of exhausting the goroutine stack.
const maxNestDepth = 200

func (p *parser) enterNest() error {
	p.depth++
	if p.depth > maxNestDepth {
		return p.errf("statement or expression nesting exceeds %d levels", maxNestDepth)
	}
	return nil
}

func (p *parser) leaveNest() { p.depth-- }

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k Kind) bool {
	return p.cur().Kind == k
}
func (p *parser) accept(k Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}
func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// --- Top level ---

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(EOF) {
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog, nil
}

// isTypeStart reports whether the current token can begin a type.
func (p *parser) isTypeStart() bool {
	switch p.cur().Kind {
	case KwVoid, KwInt, KwFloat, KwConst:
		return true
	case IDENT:
		return p.cur().Text == "VECTOR"
	}
	return false
}

// parseBaseType parses a base type (with optional const and trailing '*'s).
func (p *parser) parseBaseType() (*Type, error) {
	p.accept(KwConst)
	var t *Type
	switch {
	case p.accept(KwVoid):
		t = TypeVoid()
	case p.accept(KwInt):
		t = TypeInt()
	case p.accept(KwFloat):
		t = TypeFloat()
	case p.at(IDENT) && p.cur().Text == "VECTOR":
		p.next()
		t = TypeVector(p.lanes)
	default:
		return nil, p.errf("expected type, found %s", p.cur())
	}
	for p.accept(Star) {
		t = TypePointer(t)
	}
	return t, nil
}

func (p *parser) parseFunc() (*FuncDecl, error) {
	start := p.cur().Pos
	ret, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	var params []*Param
	if !p.at(RParen) {
		for {
			pt, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			params = append(params, &Param{Name: pn.Text, Type: pt, Pos: pn.Pos})
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: nameTok.Text, Ret: ret, Params: params, Body: body, Pos: start}, nil
}

// --- Statements ---

func (p *parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: lb.Pos}
	for !p.at(RBrace) {
		if p.at(EOF) {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.next() // RBrace
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.enterNest(); err != nil {
		return nil, err
	}
	defer p.leaveNest()
	switch {
	case p.at(PRAGMA):
		return p.parsePragmaStmt()
	case p.at(LBrace):
		return p.parseBlock()
	case p.at(KwFor):
		return p.parseFor(0)
	case p.at(KwIf):
		return p.parseIf()
	case p.at(KwReturn):
		tok := p.next()
		var x Expr
		if !p.at(Semicolon) {
			var err error
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Pos: tok.Pos}, nil
	case p.accept(Semicolon):
		return nil, nil
	case p.isTypeStart():
		decls, err := p.parseDecls()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		if len(decls) == 1 {
			return decls[0], nil
		}
		blkLike := &BlockStmt{Pos: declPos(decls[0])}
		blkLike.Stmts = decls
		return blkLike, nil
	default:
		tok := p.cur()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x, Pos: tok.Pos}, nil
	}
}

func declPos(s Stmt) Pos {
	if d, ok := s.(*DeclStmt); ok {
		return d.Pos
	}
	return Pos{}
}

// parseDecls parses `type declarator (',' declarator)*` without consuming
// the trailing semicolon. Each declarator may add array dimensions and an
// initializer.
func (p *parser) parseDecls() ([]Stmt, error) {
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	var out []Stmt
	for {
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		typ := base
		var dims []int
		for p.at(LBracket) {
			p.next()
			dim, err := p.parseConstIntExpr()
			if err != nil {
				return nil, err
			}
			if dim <= 0 {
				return nil, p.errf("array dimension must be positive, got %d", dim)
			}
			dims = append(dims, dim)
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
		}
		if len(dims) > 0 {
			typ = TypeArray(base, dims...)
		}
		var init Expr
		if p.accept(Assign) {
			if p.at(LBrace) {
				init, err = p.parseInitList()
			} else {
				init, err = p.parseAssignExpr()
			}
			if err != nil {
				return nil, err
			}
		}
		out = append(out, &DeclStmt{Name: nameTok.Text, Typ: typ, Init: init, Pos: nameTok.Pos})
		if !p.accept(Comma) {
			return out, nil
		}
	}
}

func (p *parser) parseInitList() (Expr, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	lst := &InitList{Pos: lb.Pos}
	if !p.at(RBrace) {
		for {
			e, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			lst.Elems = append(lst.Elems, e)
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return lst, nil
}

// parseConstIntExpr parses an expression and requires it to fold to a
// compile-time integer constant (array dimensions, unroll factors).
func (p *parser) parseConstIntExpr() (int, error) {
	tok := p.cur()
	e, err := p.parseCondExpr()
	if err != nil {
		return 0, err
	}
	v, ok := foldInt(e)
	if !ok {
		return 0, &ParseError{Pos: tok.Pos, Msg: "expression is not a compile-time integer constant"}
	}
	return int(v), nil
}

// foldInt constant-folds an expression to an integer if possible.
func foldInt(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Value, true
	case *Unary:
		v, ok := foldInt(x.X)
		if !ok {
			return 0, false
		}
		if x.Neg {
			return -v, true
		}
		if v == 0 {
			return 1, true
		}
		return 0, true
	case *Binary:
		l, ok1 := foldInt(x.L)
		r, ok2 := foldInt(x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case OpAdd:
			return l + r, true
		case OpSub:
			return l - r, true
		case OpMul:
			return l * r, true
		case OpDiv:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case OpRem:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
		return 0, false
	}
	return 0, false
}

func (p *parser) parseFor(unroll int) (Stmt, error) {
	forTok, err := p.expect(KwFor)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	f := &ForStmt{Pos: forTok.Pos, Unroll: unroll}
	// Init clause.
	if !p.at(Semicolon) {
		if p.isTypeStart() {
			decls, err := p.parseDecls()
			if err != nil {
				return nil, err
			}
			f.Init = decls
		} else {
			for {
				tok := p.cur()
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Init = append(f.Init, &ExprStmt{X: x, Pos: tok.Pos})
				if !p.accept(Comma) {
					break
				}
			}
		}
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	// Condition.
	if !p.at(Semicolon) {
		f.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	// Post clause(s), comma-separated.
	if !p.at(RParen) {
		for {
			tok := p.cur()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Post = append(f.Post, &ExprStmt{X: x, Pos: tok.Pos})
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// parseStmtAsBlock parses a statement and wraps a non-block statement into
// a single-statement block (loop/if bodies).
func (p *parser) parseStmtAsBlock() (*BlockStmt, error) {
	if p.at(LBrace) {
		return p.parseBlock()
	}
	pos := p.cur().Pos
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: pos}
	if s != nil {
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *parser) parseIf() (Stmt, error) {
	ifTok, err := p.expect(KwIf)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmtAsBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: ifTok.Pos}
	if p.accept(KwElse) {
		st.Else, err = p.parseStmtAsBlock()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// --- Expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() (Expr, error) {
	if err := p.enterNest(); err != nil {
		return nil, err
	}
	defer p.leaveNest()
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	var compound *BinOp
	switch p.cur().Kind {
	case Assign:
	case PlusAssign:
		op := OpAdd
		compound = &op
	case MinusAssign:
		op := OpSub
		compound = &op
	case StarAssign:
		op := OpMul
		compound = &op
	case SlashAssign:
		op := OpDiv
		compound = &op
	default:
		return lhs, nil
	}
	tok := p.next()
	rhs, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	return &AssignExpr{LHS: lhs, Op: compound, RHS: rhs, Pos: tok.Pos}, nil
}

func (p *parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.at(Question) {
		return c, nil
	}
	tok := p.next()
	a, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	b, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, A: a, B: b, Pos: tok.Pos}, nil
}

// Binary operator precedence levels, low to high.
var binLevels = [][]struct {
	kind Kind
	op   BinOp
}{
	{{OrOr, OpLOr}},
	{{AndAnd, OpLAnd}},
	{{EqEq, OpEq}, {NotEq, OpNe}},
	{{Lt, OpLt}, {Le, OpLe}, {Gt, OpGt}, {Ge, OpGe}},
	{{Plus, OpAdd}, {Minus, OpSub}},
	{{Star, OpMul}, {Slash, OpDiv}, {Percent, OpRem}},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, cand := range binLevels[level] {
			if p.at(cand.kind) {
				tok := p.next()
				rhs, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &Binary{Op: cand.op, L: lhs, R: rhs, Pos: tok.Pos}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

// isCastAhead reports whether the tokens at the current position form
// "( type [*...] )".
func (p *parser) isCastAhead() bool {
	if !p.at(LParen) {
		return false
	}
	i := p.pos + 1
	switch p.toks[i].Kind {
	case KwInt, KwFloat, KwVoid:
	case IDENT:
		if p.toks[i].Text != "VECTOR" {
			return false
		}
	default:
		return false
	}
	i++
	for p.toks[i].Kind == Star {
		i++
	}
	return p.toks[i].Kind == RParen
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.enterNest(); err != nil {
		return nil, err
	}
	defer p.leaveNest()
	tok := p.cur()
	switch tok.Kind {
	case Minus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Neg: true, X: x, Pos: tok.Pos}, nil
	case Not:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Neg: false, X: x, Pos: tok.Pos}, nil
	case Inc, Dec:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IncDec{X: x, Inc: tok.Kind == Inc, Pos: tok.Pos}, nil
	case Amp:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &AddrOf{X: x, Pos: tok.Pos}, nil
	case Star:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return foldDeref(x, tok.Pos)
	case LParen:
		if p.isCastAhead() {
			p.next() // (
			to, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Cast{To: to, X: x, Pos: tok.Pos}, nil
		}
	}
	return p.parsePostfix()
}

// foldDeref turns `*((VECTOR*)&base[idx])` into a VecLoad and rejects other
// dereference forms (MiniC kernels only dereference for vector access).
func foldDeref(x Expr, pos Pos) (Expr, error) {
	cast, ok := x.(*Cast)
	if !ok {
		return nil, &ParseError{Pos: pos, Msg: "unsupported dereference: only *((VECTOR*)&expr[idx]) is allowed"}
	}
	if !cast.To.IsPointer() || !cast.To.Elem.IsVector() {
		return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("unsupported cast target %s in dereference", cast.To)}
	}
	addr, ok := cast.X.(*AddrOf)
	if !ok {
		return nil, &ParseError{Pos: pos, Msg: "vector cast must apply to &array[index]"}
	}
	idx, ok := addr.X.(*Index)
	if !ok || len(idx.Idx) != 1 {
		return nil, &ParseError{Pos: pos, Msg: "vector cast must apply to a single-subscript &array[index]"}
	}
	vl := &VecLoad{Base: idx.Base, Idx: idx.Idx[0], Pos: pos}
	vl.SetType(cast.To.Elem)
	return vl, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case LBracket:
			idx := x
			var indices []Expr
			for p.at(LBracket) {
				p.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				indices = append(indices, e)
				if _, err := p.expect(RBracket); err != nil {
					return nil, err
				}
			}
			x = &Index{Base: idx, Idx: indices, Pos: p.cur().Pos}
		case Inc, Dec:
			tok := p.next()
			x = &IncDec{X: x, Inc: tok.Kind == Inc, Pos: tok.Pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case INTLIT:
		p.next()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, &ParseError{Pos: tok.Pos, Msg: "bad integer literal: " + tok.Text}
		}
		return &IntLit{Value: v, Pos: tok.Pos}, nil
	case FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, &ParseError{Pos: tok.Pos, Msg: "bad float literal: " + tok.Text}
		}
		return &FloatLit{Value: v, Pos: tok.Pos}, nil
	case IDENT:
		p.next()
		if p.at(LParen) {
			p.next()
			call := &Call{Name: tok.Text, Pos: tok.Pos}
			if !p.at(RParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(Comma) {
						break
					}
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: tok.Text, Pos: tok.Pos}, nil
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("unexpected token %s in expression", tok)
}
