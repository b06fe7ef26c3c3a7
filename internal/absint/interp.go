package absint

import (
	"sort"

	"paravis/internal/minic"
)

// state holds one abstract value per resolved variable, indexed by
// variable id. A slot with no information (untracked variables included)
// holds the canonical topVal(); unreachable blocks have no state (nil).
type state []Val

func (a *analysis) newState() state {
	s := make(state, len(a.res.vars))
	for i := range s {
		s[i] = topVal()
	}
	return s
}

// set stores val for variable id, keeping top canonical.
func (s state) set(id int, val Val) {
	if val.isTop() {
		val = topVal()
	}
	s[id] = val
}

// joinStates writes the join of a and b into dst, which may alias
// either. Top absorbs: a slot is known only where both sides know it.
func joinStates(dst, a, b state) {
	for i := range dst {
		va, vb := a[i], b[i]
		if va.isTop() || vb.isTop() {
			dst[i] = topVal()
			continue
		}
		dst.set(i, va.join(vb))
	}
}

// widenStates widens old toward next in place in next. A slot unknown in
// old is known here for the first time: the join already covered both
// inputs, so the new value stands.
func widenStates(old, next state, th []int64) {
	for i, nv := range next {
		if nv.isTop() || old[i].isTop() {
			continue
		}
		next.set(i, old[i].widen(nv, th))
	}
}

func equalStates(a, b state) bool {
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

// analysis is the per-function solver context. The per-block flow
// states are indexed by block id.
type analysis struct {
	res   *resolution
	g     *cfg
	th    []int64 // sorted widening thresholds
	delay int     // widening delay (head visits before widening kicks in)
	entry state   // function-entry state: known parameter values
	in    []state // nil while the block is unreachable
	outN  []state // unconditional-edge out
	outT  []state // refined true-edge out; nil when the edge is dead
	outF  []state // refined false-edge out; nil when the edge is dead
}

const (
	defaultWidenDelay = 2
	maxPasses         = 400
)

func newAnalysis(fn *minic.FuncDecl, res *resolution, env map[string]int64, delay int) *analysis {
	g := buildCFG(fn)
	n := len(g.blocks)
	a := &analysis{
		res:   res,
		g:     g,
		delay: delay,
		in:    make([]state, n),
		outN:  make([]state, n),
		outT:  make([]state, n),
		outF:  make([]state, n),
	}
	a.th = thresholds(fn, env, res.nt)
	a.entry = a.newState()
	for _, v := range res.vars {
		if val, ok := env[v.name]; ok && v.isParam && v.tracked {
			a.entry[v.id] = exactVal(val)
		}
	}
	return a
}

// thresholds collects the landmark constants widening snaps to: every
// integer literal in the function (and its off-by-one neighbors, so
// exclusive/inclusive bounds both land), array dimensions, parameter
// values, the thread count, and the usual suspects around zero.
func thresholds(fn *minic.FuncDecl, env map[string]int64, nt int) []int64 {
	set := map[int64]bool{-1: true, 0: true, 1: true, int64(nt): true, int64(nt) - 1: true}
	addC := func(v int64) {
		set[v] = true
		if v > -1<<62 {
			set[v-1] = true
		}
		if v < 1<<62 {
			set[v+1] = true
		}
	}
	for _, v := range env {
		addC(v)
	}
	var walkS func(s minic.Stmt)
	var walkE func(e minic.Expr)
	walkE = func(e minic.Expr) {
		if e == nil {
			return
		}
		if lit, ok := e.(*minic.IntLit); ok {
			addC(lit.Value)
		}
		for _, sub := range children(e) {
			walkE(sub)
		}
	}
	walkS = func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.BlockStmt:
			for _, c := range st.Stmts {
				walkS(c)
			}
		case *minic.DeclStmt:
			for _, d := range st.Typ.Dims {
				addC(int64(d))
			}
			walkE(st.Init)
		case *minic.ExprStmt:
			walkE(st.X)
		case *minic.ForStmt:
			for _, c := range st.Init {
				walkS(c)
			}
			walkE(st.Cond)
			walkS(st.Body)
			for _, c := range st.Post {
				walkS(c)
			}
		case *minic.IfStmt:
			walkE(st.Cond)
			walkS(st.Then)
			if st.Else != nil {
				walkS(st.Else)
			}
		case *minic.ReturnStmt:
			walkE(st.X)
		case *minic.CriticalStmt:
			walkS(st.Body)
		case *minic.TargetStmt:
			for i := range st.Maps {
				walkE(st.Maps[i].Low)
				walkE(st.Maps[i].Len)
			}
			walkS(st.Body)
		}
	}
	walkS(fn.Body)
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inFlow joins the edge-out states of bl's predecessors, skipping
// except, into dst. It returns false when no predecessor has produced a
// state yet (the block is currently unreachable); dst is then garbage.
func (a *analysis) inFlow(dst state, bl *block, except *block) bool {
	if bl == a.g.entry {
		copy(dst, a.entry)
		return true
	}
	have := false
	add := func(s state) {
		switch {
		case s == nil:
		case !have:
			copy(dst, s)
			have = true
		default:
			joinStates(dst, dst, s)
		}
	}
	for _, p := range bl.preds {
		if p == except {
			continue
		}
		if p.cond != nil {
			if p.tsucc == bl {
				add(a.outT[p.id])
			}
			if p.fsucc == bl {
				add(a.outF[p.id])
			}
		} else if p.next == bl {
			add(a.outN[p.id])
		}
	}
	return have
}

// reuse returns buf, or a fresh state when buf is nil.
func (a *analysis) reuse(buf state) state {
	if buf == nil {
		return a.newState()
	}
	return buf
}

// transfer runs bl's instructions over a copy of in and refreshes the
// per-edge out states, overwriting their previous buffers.
func (a *analysis) transfer(bl *block, in state) {
	id := bl.id
	if bl.cond == nil {
		out := a.reuse(a.outN[id])
		copy(out, in)
		a.run(bl, out)
		a.outN[id] = out
		return
	}
	out := a.reuse(a.outF[id])
	copy(out, in)
	a.run(bl, out)
	t := a.reuse(a.outT[id])
	copy(t, out)
	a.outT[id], a.outF[id] = nil, nil
	if refine(a, t, bl, true) {
		a.outT[id] = t
	}
	if refine(a, out, bl, false) {
		a.outF[id] = out
	}
}

// run applies bl's instructions to st in place.
func (a *analysis) run(bl *block, st state) {
	ev := &evaluator{a: a, st: st, inRegion: bl.inRegion}
	for _, ins := range bl.instrs {
		ev.instr(ins)
	}
}

// solve iterates reverse postorder to a fixpoint with widening at loop
// heads, then runs two narrowing passes. Returns false if the pass
// budget ran out (the caller then publishes no facts).
//
// A block that already has a state is skipped while none of its
// predecessors has transferred since its in-state was last joined: the
// join would read the same edge states, and joining or widening a state
// with what it already covers returns it unchanged. A skipped loop head
// still counts the visit, since the widening delay counts visits; so
// the solver takes exactly the steps of one that re-joins every block.
func (a *analysis) solve() bool {
	n := len(a.g.blocks)
	visits := make([]int, n)
	stamp := make([]int, n)  // clock at the block's last transfer
	joined := make([]int, n) // clock when the block's in-state was last joined
	clock := 0
	scratch := a.newState()
	unchanged := func(bl *block) bool {
		for _, p := range bl.preds {
			if stamp[p.id] > joined[bl.id] {
				return false
			}
		}
		return true
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, bl := range a.g.rpo {
			id := bl.id
			old := a.in[id]
			if old != nil && unchanged(bl) {
				if bl.isLoopHead {
					visits[id]++
				}
				continue
			}
			if !a.inFlow(scratch, bl, nil) {
				continue
			}
			joined[id] = clock
			if old != nil {
				joinStates(scratch, old, scratch)
				if bl.isLoopHead {
					visits[id]++
					if visits[id] > a.delay {
						widenStates(old, scratch, a.th)
					}
				}
				if equalStates(old, scratch) {
					continue
				}
			}
			a.in[id], scratch = scratch, a.reuse(old)
			a.transfer(bl, a.in[id])
			clock++
			stamp[id] = clock
			changed = true
		}
		if !changed {
			// Narrowing: recompute every state once from scratch without
			// joining with the old value. Transfer functions are monotone
			// and the widened solution is a post-fixpoint, so this only
			// tightens. Two passes recover most threshold overshoot.
			for k := 0; k < 2; k++ {
				for _, bl := range a.g.rpo {
					id := bl.id
					if !a.inFlow(scratch, bl, nil) {
						a.in[id], a.outN[id], a.outT[id], a.outF[id] = nil, nil, nil, nil
						continue
					}
					old := a.in[id]
					a.in[id], scratch = scratch, a.reuse(old)
					a.transfer(bl, a.in[id])
				}
			}
			return true
		}
	}
	return false
}

// evaluator walks statements/expressions over one mutable state. The
// optional collector records facts (used after the fixpoint); during
// solving it is nil.
type evaluator struct {
	a        *analysis
	st       state
	inRegion bool
	col      *collector
}

func (ev *evaluator) instr(ins instr) {
	switch ins.kind {
	case ikStmt:
		switch st := ins.s.(type) {
		case *minic.DeclStmt:
			var v Val
			if st.Init != nil {
				v = ev.expr(st.Init)
			} else {
				v = topVal()
			}
			if vr := ev.a.res.declOf[st]; vr != nil && vr.tracked {
				ev.set(vr, v)
			}
		case *minic.ExprStmt:
			ev.expr(st.X)
		case *minic.ReturnStmt:
			if st.X != nil {
				ev.expr(st.X)
			}
		}
	case ikTargetEnter:
		for i := range ins.ts.Maps {
			mc := &ins.ts.Maps[i]
			low, length := topVal(), topVal()
			if mc.Low != nil {
				low = ev.expr(mc.Low)
			}
			if mc.Len != nil {
				length = ev.expr(mc.Len)
			}
			if ev.col != nil {
				ev.col.mapWindow(mc, low, length)
			}
		}
	case ikTargetExit:
		// The region ran on NT threads: anything it may have written to
		// outer scope is unknown afterwards, as are from-mapped scalars.
		for _, v := range ev.a.res.vars {
			if v.sharedMut {
				ev.st[v.id] = topVal()
			}
		}
		for i := range ins.ts.Maps {
			mc := &ins.ts.Maps[i]
			if mc.Dir == minic.MapTo {
				continue
			}
			if v, ok := ev.a.res.mapOf[mc.Name]; ok && v.tracked {
				ev.st[v.id] = topVal()
			}
		}
	}
}

func (ev *evaluator) set(v *variable, val Val) { ev.st.set(v.id, val) }

func (ev *evaluator) get(v *variable) Val {
	if v == nil || !v.tracked {
		return topVal()
	}
	if v.sharedMut && ev.inRegion {
		// Another omp thread may have stored anything here.
		return topVal()
	}
	return ev.st[v.id]
}

func isIntExpr(e minic.Expr) bool {
	t := e.Type()
	return t != nil && t.IsScalar() && t.Basic == minic.Int
}

// expr abstractly evaluates e, applying assignment/increment side
// effects to the state and recording facts through the collector.
func (ev *evaluator) expr(e minic.Expr) Val {
	switch x := e.(type) {
	case nil:
		return topVal()
	case *minic.IntLit:
		return exactVal(x.Value)
	case *minic.FloatLit:
		return topVal()
	case *minic.Ident:
		return ev.get(ev.a.res.useOf[x])
	case *minic.Call:
		for _, arg := range x.Args {
			ev.expr(arg)
		}
		switch x.Name {
		case "omp_get_thread_num":
			return intervalVal(Range(0, int64(ev.a.res.nt)-1))
		case "omp_get_num_threads":
			return exactVal(int64(ev.a.res.nt))
		}
		return topVal()
	case *minic.Unary:
		v := ev.expr(x.X)
		if x.Neg {
			if !isIntExpr(x) {
				return topVal()
			}
			return v.neg()
		}
		return boolVal(-v.truth())
	case *minic.Binary:
		return ev.binary(x)
	case *minic.Cond:
		c := ev.expr(x.C)
		av := ev.expr(x.A)
		bv := ev.expr(x.B)
		if !isIntExpr(x) {
			return topVal()
		}
		switch c.truth() {
		case +1:
			return av
		case -1:
			return bv
		}
		return av.join(bv)
	case *minic.Index:
		ev.index(x, false)
		return topVal()
	case *minic.VecElem:
		iv := ev.expr(x.Idx)
		if _, ok := x.Vec.(*minic.Ident); !ok {
			ev.expr(x.Vec)
		}
		if ev.col != nil {
			ev.col.vecElem(x, iv)
		}
		return topVal()
	case *minic.VecLoad:
		iv := ev.expr(x.Idx)
		if _, ok := x.Base.(*minic.Ident); !ok {
			ev.expr(x.Base)
		}
		if ev.col != nil {
			ev.col.vecAccess(x, iv, false)
		}
		return topVal()
	case *minic.AssignExpr:
		return ev.assign(x)
	case *minic.IncDec:
		if ix, ok := x.X.(*minic.Index); ok {
			ev.index(ix, true)
			return topVal()
		}
		if id, ok := x.X.(*minic.Ident); ok {
			v := ev.a.res.useOf[id]
			cur := ev.get(v)
			d := exactVal(1)
			if !x.Inc {
				d = exactVal(-1)
			}
			nv := cur.add(d)
			if v != nil && v.tracked {
				ev.set(v, nv)
			}
			return nv
		}
		ev.expr(x.X)
		return topVal()
	case *minic.Cast:
		ev.expr(x.X)
		return topVal()
	case *minic.AddrOf:
		ev.expr(x.X)
		return topVal()
	case *minic.InitList:
		for _, el := range x.Elems {
			ev.expr(el)
		}
		return topVal()
	}
	return topVal()
}

// index evaluates an Index node's subscripts and records the access.
func (ev *evaluator) index(x *minic.Index, write bool) {
	vals := make([]Val, len(x.Idx))
	for i, ix := range x.Idx {
		vals[i] = ev.expr(ix)
	}
	if _, ok := x.Base.(*minic.Ident); !ok {
		ev.expr(x.Base)
	}
	if ev.col != nil {
		ev.col.access(x, vals, write)
	}
}

func (ev *evaluator) binary(x *minic.Binary) Val {
	l := ev.expr(x.L)
	// Short-circuit operators still evaluate both sides abstractly (the
	// right side has no tracked side effects in condition position).
	r := ev.expr(x.R)
	intOp := isIntExpr(x.L) && isIntExpr(x.R)
	switch x.Op {
	case minic.OpAdd, minic.OpSub, minic.OpMul, minic.OpDiv, minic.OpRem:
		if !intOp {
			if (x.Op == minic.OpDiv || x.Op == minic.OpRem) && ev.col != nil && isIntExpr(x.R) {
				ev.col.division(x, r)
			}
			return topVal()
		}
		switch x.Op {
		case minic.OpAdd:
			return l.add(r)
		case minic.OpSub:
			return l.sub(r)
		case minic.OpMul:
			return l.mul(r)
		case minic.OpDiv:
			if ev.col != nil {
				ev.col.division(x, r)
			}
			return l.div(r)
		default:
			if ev.col != nil {
				ev.col.division(x, r)
			}
			return l.rem(r)
		}
	case minic.OpLt:
		if !intOp {
			return boolVal(0)
		}
		return cmpLt(l, r)
	case minic.OpLe:
		if !intOp {
			return boolVal(0)
		}
		return cmpLe(l, r)
	case minic.OpGt:
		if !intOp {
			return boolVal(0)
		}
		return cmpLt(r, l)
	case minic.OpGe:
		if !intOp {
			return boolVal(0)
		}
		return cmpLe(r, l)
	case minic.OpEq:
		if !intOp {
			return boolVal(0)
		}
		return cmpEq(l, r)
	case minic.OpNe:
		if !intOp {
			return boolVal(0)
		}
		eq := cmpEq(l, r)
		return boolVal(-eq.truth())
	case minic.OpLAnd:
		lt, rt := l.truth(), r.truth()
		switch {
		case lt < 0 || rt < 0:
			return exactVal(0)
		case lt > 0 && rt > 0:
			return exactVal(1)
		}
		return boolVal(0)
	case minic.OpLOr:
		lt, rt := l.truth(), r.truth()
		switch {
		case lt > 0 || rt > 0:
			return exactVal(1)
		case lt < 0 && rt < 0:
			return exactVal(0)
		}
		return boolVal(0)
	}
	return topVal()
}

func (ev *evaluator) assign(x *minic.AssignExpr) Val {
	rhs := ev.expr(x.RHS)
	switch lhs := x.LHS.(type) {
	case *minic.Ident:
		v := ev.a.res.useOf[lhs]
		nv := rhs
		if x.Op != nil {
			cur := ev.get(v)
			nv = applyBin(*x.Op, cur, rhs, isIntExpr(lhs) && isIntExpr(x.RHS))
		}
		if !isIntExpr(lhs) {
			nv = topVal()
		}
		if v != nil && v.tracked {
			ev.set(v, nv)
		}
		return nv
	case *minic.Index:
		ev.index(lhs, true)
		return topVal()
	case *minic.VecElem:
		iv := ev.expr(lhs.Idx)
		if _, ok := lhs.Vec.(*minic.Ident); !ok {
			ev.expr(lhs.Vec)
		}
		if ev.col != nil {
			ev.col.vecElem(lhs, iv)
		}
		return topVal()
	case *minic.VecLoad:
		iv := ev.expr(lhs.Idx)
		if _, ok := lhs.Base.(*minic.Ident); !ok {
			ev.expr(lhs.Base)
		}
		if ev.col != nil {
			ev.col.vecAccess(lhs, iv, true)
		}
		return topVal()
	default:
		ev.expr(lhs)
		return topVal()
	}
}

func applyBin(op minic.BinOp, l, r Val, intOp bool) Val {
	if !intOp {
		return topVal()
	}
	switch op {
	case minic.OpAdd:
		return l.add(r)
	case minic.OpSub:
		return l.sub(r)
	case minic.OpMul:
		return l.mul(r)
	case minic.OpDiv:
		return l.div(r)
	case minic.OpRem:
		return l.rem(r)
	}
	return topVal()
}
