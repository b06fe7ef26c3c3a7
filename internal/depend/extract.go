package depend

import "paravis/internal/minic"

// loopInfo is one ForStmt in the target region with its recognized
// induction variable. Loops whose induction pattern is not recognized
// are still registered (so accesses under them poison conservatively);
// hasIV is false and every reference to the iv evaluates to bottom.
type loopInfo struct {
	name   string
	pos    minic.Pos
	depth  int
	unroll int
	parent *loopInfo

	ivName string
	hasIV  bool
	step   int64 // per-iteration value increment, != 0 when hasIV
	init   aff   // iv value at iteration 0, evaluated in the outer context
	bound  aff   // exclusive bound for step>0 / inclusive handled via boundAdj
	hasBnd bool

	threadLoop bool
	// assigned collects scalar names written anywhere in the body or
	// post clauses (except the iv itself): inside the loop their value
	// varies per iteration in ways the affine domain does not track, so
	// references evaluate to bottom.
	assigned map[string]bool
}

// iterLast returns a polynomial upper bound U on the loop's last
// iteration index (t <= U). It is exact for unit steps and conservative
// (value-span based) otherwise, which is sound: a larger iteration
// range only widens intervals.
func (l *loopInfo) iterLast() (poly, bool) {
	if !l.hasIV || !l.hasBnd || !l.init.isInvariant() || !l.bound.isInvariant() {
		return nil, false
	}
	span := l.bound.base.sub(l.init.base).sub(polyConst(1))
	if l.step < 0 {
		span = l.init.base.sub(l.bound.base).sub(polyConst(1))
	}
	// The tid pseudo-symbol in a bound would make the span per-thread;
	// substitute its worst case (tid >= 0 keeps the span an upper
	// bound when the tid coefficient is <= 0, i.e. "start at my_id").
	if span.hasTid() {
		rest, tidCoef, ok := span.tidSplit()
		if !ok || !tidCoef.negate().isNonNeg() {
			return nil, false
		}
		span = rest // tid term <= 0: dropping it can only increase span
	}
	step := l.step
	if step < 0 {
		step = -step
	}
	if step > 1 {
		if span.divisibleBy(step) {
			span = span.divInt(step)
		} else if c, ok := span.constVal(); ok {
			span = polyConst(c / step)
		}
		// Otherwise keep the value span: t <= span since step >= 1.
	}
	return span, true
}

// arrayInfo identifies one array (mapped DRAM pointer or local BRAM
// array) by declaration, so shadowed names stay distinct.
type arrayInfo struct {
	name  string
	dram  bool
	dims  []int // declared dimensions (empty for mapped pointers)
	lanes int   // scalar words per element (vector-element arrays)
}

// access is one array read or write with its affine element subscript
// (in scalar words) and the loop chain enclosing it, outermost first.
type access struct {
	arr      *arrayInfo
	write    bool
	pos      minic.Pos
	width    int64
	sub      aff
	loops    []*loopInfo
	pred     bool // under an if: may not execute every iteration
	critical bool
	// node is the AST access node, the key an external range oracle
	// (internal/absint) uses to attach proven element-index ranges.
	node minic.Expr
}

type walker struct {
	nt     int
	env    map[string]int64
	ranges RangeFn
	params map[string]bool

	arrays map[string]*arrayInfo
	syms   map[string]aff

	loops    []*loopInfo
	allLoops []*loopInfo
	accs     []*access

	predDepth int
	critDepth int
}

func newWalker(fn *minic.FuncDecl, ts *minic.TargetStmt, nt int, env map[string]int64) *walker {
	w := &walker{
		nt:     nt,
		env:    env,
		params: map[string]bool{},
		arrays: map[string]*arrayInfo{},
		syms:   map[string]aff{},
	}
	for _, p := range fn.Params {
		w.params[p.Name] = true
		if p.Type.IsPointer() {
			w.arrays[p.Name] = &arrayInfo{name: p.Name, dram: true, lanes: 1}
		}
	}
	return w
}

// block walks a block with scoped save/restore of scalar and array
// bindings.
func (w *walker) block(b *minic.BlockStmt) {
	if b == nil {
		return
	}
	savedSyms := map[string]*aff{}
	savedArrs := map[string]*arrayInfo{}
	declared := map[string]bool{}
	for _, s := range b.Stmts {
		if d, ok := s.(*minic.DeclStmt); ok && !declared[d.Name] {
			declared[d.Name] = true
			if old, ok := w.syms[d.Name]; ok {
				o := old
				savedSyms[d.Name] = &o
			} else {
				savedSyms[d.Name] = nil
			}
			savedArrs[d.Name] = w.arrays[d.Name]
		}
	}
	for _, s := range b.Stmts {
		w.stmt(s)
	}
	for name, old := range savedSyms {
		if old != nil {
			w.syms[name] = *old
		} else {
			delete(w.syms, name)
		}
	}
	for name, old := range savedArrs {
		if old != nil {
			w.arrays[name] = old
		} else {
			delete(w.arrays, name)
		}
	}
}

func (w *walker) stmt(s minic.Stmt) {
	switch st := s.(type) {
	case *minic.DeclStmt:
		w.decl(st)
	case *minic.ExprStmt:
		w.expr(st.X)
	case *minic.BlockStmt:
		w.block(st)
	case *minic.ForStmt:
		w.forStmt(st)
	case *minic.IfStmt:
		w.expr(st.Cond)
		w.predDepth++
		w.block(st.Then)
		w.block(st.Else)
		w.predDepth--
	case *minic.CriticalStmt:
		w.critDepth++
		w.block(st.Body)
		w.critDepth--
	case *minic.ReturnStmt:
		if st.X != nil {
			w.expr(st.X)
		}
	case *minic.BarrierStmt, *minic.TargetStmt:
		// Nested targets do not occur; barriers carry no accesses.
	}
}

func (w *walker) decl(st *minic.DeclStmt) {
	if st.Typ.IsArray() {
		lanes := 1
		if st.Typ.Elem != nil && st.Typ.Elem.Lanes > 1 {
			lanes = st.Typ.Elem.Lanes
		} else if st.Typ.Lanes > 1 {
			lanes = st.Typ.Lanes
		}
		w.arrays[st.Name] = &arrayInfo{name: st.Name, dims: st.Typ.Dims, lanes: lanes}
		delete(w.syms, st.Name)
		return
	}
	delete(w.arrays, st.Name)
	if st.Init != nil {
		w.expr(st.Init)
		w.syms[st.Name] = w.evalAff(st.Init)
	} else {
		w.syms[st.Name] = affBottom()
	}
}

// forStmt recognizes the induction pattern, registers the loop, and
// walks init/cond/body/post.
func (w *walker) forStmt(st *minic.ForStmt) {
	l := &loopInfo{
		name:     minic.LoopName(st),
		pos:      st.Pos,
		depth:    len(w.loops) + 1,
		unroll:   st.Unroll,
		assigned: map[string]bool{},
	}
	if len(w.loops) > 0 {
		l.parent = w.loops[len(w.loops)-1]
	}

	// Bindings introduced by init clauses are scoped to the loop.
	savedSyms := map[string]*aff{}
	saveSym := func(name string) {
		if _, done := savedSyms[name]; done {
			return
		}
		if old, ok := w.syms[name]; ok {
			o := old
			savedSyms[name] = &o
		} else {
			savedSyms[name] = nil
		}
	}

	// The iv is the variable stepped in a post clause and tested in the
	// condition.
	ivName, step, stepOK := recognizeStep(st, w)
	for _, s := range st.Init {
		switch is := s.(type) {
		case *minic.DeclStmt:
			saveSym(is.Name)
			w.decl(is)
		case *minic.ExprStmt:
			if as, ok := is.X.(*minic.AssignExpr); ok {
				if id, ok := as.LHS.(*minic.Ident); ok && as.Op == nil {
					saveSym(id.Name)
					w.expr(as.RHS)
					w.syms[id.Name] = w.evalAff(as.RHS)
					continue
				}
			}
			w.expr(is.X)
		}
	}
	if ivName != "" && stepOK {
		l.ivName, l.hasIV, l.step = ivName, true, step
		// The init clause walk (or an earlier statement, for
		// `for (; i < n;)` forms) bound the iv's starting value.
		if v, ok := w.syms[ivName]; ok {
			l.init = v
		} else {
			l.init = affBottom()
		}
		if l.init.ok && l.init.base.hasTid() {
			l.threadLoop = true
		}
		l.bound, l.hasBnd = recognizeBound(st.Cond, ivName, step, w)
	}
	// Names mutated in the body or post clauses vary per iteration.
	collectAssigned(st.Body, l.assigned)
	// An induction variable mutated in the body (beyond its post-clause
	// step) does not advance linearly: drop the recognition.
	if l.hasIV && l.assigned[l.ivName] {
		l.hasIV = false
		l.ivName, l.step = "", 0
		l.init, l.bound, l.hasBnd = affBottom(), affBottom(), false
		l.threadLoop = false
	}
	for _, s := range st.Post {
		if es, ok := s.(*minic.ExprStmt); ok {
			assignTargets(es.X, l.assigned)
		}
	}
	delete(l.assigned, l.ivName)

	w.loops = append(w.loops, l)
	w.allLoops = append(w.allLoops, l)
	if l.hasIV {
		saveSym(l.ivName)
		iv := l.init.clone()
		if iv.ok {
			iv = iv.add(aff{ok: true, base: poly{}}.setCoef(l, polyConst(l.step)))
		}
		w.syms[l.ivName] = iv
	}
	if st.Cond != nil {
		w.expr(st.Cond)
	}
	w.block(st.Body)
	for _, s := range st.Post {
		if es, ok := s.(*minic.ExprStmt); ok {
			w.expr(es.X)
		}
	}
	w.loops = w.loops[:len(w.loops)-1]
	for name, old := range savedSyms {
		if old != nil {
			w.syms[name] = *old
		} else {
			delete(w.syms, name)
		}
	}
	// Any binding still referencing the exited loop's iteration var is
	// a loop-exit value the affine domain cannot express.
	for name, a := range w.syms {
		if a.ok {
			if _, refs := a.coef[l]; refs {
				w.syms[name] = affBottom()
			}
		}
	}
}

// recognizeStep finds the post clause `iv += c`, `iv -= c`, `++iv` or
// `--iv` with a constant-folding step.
func recognizeStep(st *minic.ForStmt, w *walker) (string, int64, bool) {
	for _, s := range st.Post {
		es, ok := s.(*minic.ExprStmt)
		if !ok {
			continue
		}
		switch x := es.X.(type) {
		case *minic.IncDec:
			if id, ok := x.X.(*minic.Ident); ok {
				if condTests(st.Cond, id.Name) {
					if x.Inc {
						return id.Name, 1, true
					}
					return id.Name, -1, true
				}
			}
		case *minic.AssignExpr:
			id, ok := x.LHS.(*minic.Ident)
			if !ok || !condTests(st.Cond, id.Name) {
				continue
			}
			var stepExpr minic.Expr
			neg := false
			if x.Op != nil && (*x.Op == minic.OpAdd || *x.Op == minic.OpSub) {
				stepExpr = x.RHS
				neg = *x.Op == minic.OpSub
			} else if x.Op == nil {
				// iv = iv + c / iv = c + iv / iv = iv - c
				if b, ok := x.RHS.(*minic.Binary); ok {
					switch {
					case b.Op == minic.OpAdd && isIdent(b.L, id.Name):
						stepExpr = b.R
					case b.Op == minic.OpAdd && isIdent(b.R, id.Name):
						stepExpr = b.L
					case b.Op == minic.OpSub && isIdent(b.L, id.Name):
						stepExpr, neg = b.R, true
					}
				}
			}
			if stepExpr == nil {
				continue
			}
			if c, ok := w.evalAff(stepExpr).constVal(); ok && c != 0 {
				if neg {
					c = -c
				}
				return id.Name, c, true
			}
		}
	}
	return "", 0, false
}

func isIdent(e minic.Expr, name string) bool {
	id, ok := e.(*minic.Ident)
	return ok && id.Name == name
}

// condTests reports whether the loop condition compares the named
// variable.
func condTests(cond minic.Expr, name string) bool {
	b, ok := cond.(*minic.Binary)
	if !ok || !b.Op.IsComparison() {
		return false
	}
	return isIdent(b.L, name) || isIdent(b.R, name)
}

// recognizeBound extracts the exclusive value bound from `iv < b`,
// `iv <= b` (and mirrored / reversed forms) matching the step
// direction: for positive steps the result satisfies iv < bound on
// every executed iteration; for negative steps iv > bound.
func recognizeBound(cond minic.Expr, ivName string, step int64, w *walker) (aff, bool) {
	b, ok := cond.(*minic.Binary)
	if !ok {
		return affBottom(), false
	}
	op := b.Op
	var boundExpr minic.Expr
	if isIdent(b.L, ivName) {
		boundExpr = b.R
	} else if isIdent(b.R, ivName) {
		boundExpr = b.L
		// Mirror the comparison: b OP iv == iv OP' b.
		switch op {
		case minic.OpLt:
			op = minic.OpGt
		case minic.OpLe:
			op = minic.OpGe
		case minic.OpGt:
			op = minic.OpLt
		case minic.OpGe:
			op = minic.OpLe
		}
	} else {
		return affBottom(), false
	}
	bnd := w.evalAff(boundExpr)
	if !bnd.ok {
		return affBottom(), false
	}
	switch {
	case step > 0 && op == minic.OpLt:
		return bnd, true
	case step > 0 && op == minic.OpLe:
		return bnd.add(affConst(1)), true
	case step < 0 && op == minic.OpGt:
		return bnd, true
	case step < 0 && op == minic.OpGe:
		return bnd.sub(affConst(1)), true
	}
	return affBottom(), false
}

// collectAssigned records scalar names written anywhere under b.
func collectAssigned(b *minic.BlockStmt, out map[string]bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *minic.ExprStmt:
			assignTargets(st.X, out)
		case *minic.BlockStmt:
			collectAssigned(st, out)
		case *minic.ForStmt:
			collectAssigned(st.Body, out)
			for _, p := range st.Post {
				if es, ok := p.(*minic.ExprStmt); ok {
					assignTargets(es.X, out)
				}
			}
			for _, p := range st.Init {
				if es, ok := p.(*minic.ExprStmt); ok {
					assignTargets(es.X, out)
				}
			}
		case *minic.IfStmt:
			collectAssigned(st.Then, out)
			collectAssigned(st.Else, out)
		case *minic.CriticalStmt:
			collectAssigned(st.Body, out)
		case *minic.DeclStmt:
			// A declaration with an initializer re-binds per iteration,
			// which the scoped walk models precisely; only mutation
			// after the declaration poisons, and that shows up as an
			// AssignExpr below.
		}
	}
}

func assignTargets(e minic.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *minic.AssignExpr:
		if id, ok := x.LHS.(*minic.Ident); ok {
			out[id.Name] = true
		}
		assignTargets(x.RHS, out)
	case *minic.IncDec:
		if id, ok := x.X.(*minic.Ident); ok {
			out[id.Name] = true
		}
	}
}
