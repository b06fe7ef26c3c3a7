package absint

import "paravis/internal/minic"

// refine narrows st in place to the edge state for taking bl's branch
// condition with the given truth sense. Returns false when the edge is
// provably dead (the refined state is bottom; st is then garbage). The
// refinement only narrows identifier values — everything else stays as
// computed by the transfer function — so it is always a sound
// over-approximation of the concrete edge states.
func refine(a *analysis, st state, bl *block, sense bool) bool {
	if bl.impure {
		// A side-effecting condition (rare): apply its effects once, keep
		// only the truth-contradiction check, skip narrowing.
		ev := &evaluator{a: a, st: st, inRegion: bl.inRegion}
		t := ev.expr(bl.cond).truth()
		return !((sense && t < 0) || (!sense && t > 0))
	}
	return refineInto(a, st, bl.cond, sense, bl.inRegion)
}

// impure reports whether evaluating e could change tracked state.
func impure(e minic.Expr) bool {
	switch e.(type) {
	case *minic.AssignExpr, *minic.IncDec:
		return true
	}
	for _, sub := range children(e) {
		if impure(sub) {
			return true
		}
	}
	return false
}

// refineInto narrows st in place; false means contradiction (dead edge).
// cond is pure, so evaluating it never changes st.
func refineInto(a *analysis, st state, cond minic.Expr, sense bool, inRegion bool) bool {
	switch x := cond.(type) {
	case *minic.Unary:
		if !x.Neg { // logical not
			return refineInto(a, st, x.X, !sense, inRegion)
		}
	case *minic.Binary:
		switch x.Op {
		case minic.OpLAnd:
			if sense {
				return refineInto(a, st, x.L, true, inRegion) &&
					refineInto(a, st, x.R, true, inRegion)
			}
			return refineOr(a, st, x.L, false, x.R, false, inRegion)
		case minic.OpLOr:
			if !sense {
				return refineInto(a, st, x.L, false, inRegion) &&
					refineInto(a, st, x.R, false, inRegion)
			}
			return refineOr(a, st, x.L, true, x.R, true, inRegion)
		case minic.OpLt, minic.OpLe, minic.OpGt, minic.OpGe, minic.OpEq, minic.OpNe:
			return refineCmp(a, st, x, sense, inRegion)
		}
	case *minic.Ident:
		// `if (x)` — true excludes 0, false pins to 0.
		v := a.res.useOf[x]
		if v == nil || !v.tracked || (v.sharedMut && inRegion) {
			return true
		}
		cur := st[v.id]
		var nv Val
		if sense {
			nv = excludeZero(cur)
		} else {
			nv = cur.meet(exactVal(0))
		}
		if nv.isBottom() {
			return false
		}
		st.set(v.id, nv)
		return true
	}
	// Generic fallback: evaluate the condition in the current state and
	// check for a truth contradiction.
	ev := &evaluator{a: a, st: st, inRegion: inRegion}
	t := ev.expr(cond).truth()
	if (sense && t < 0) || (!sense && t > 0) {
		return false
	}
	return true
}

// refineOr refines along "L(with senseL) OR R(with senseR)": the result
// must cover both disjuncts, so each is refined independently (L on a
// copy, R in place) and the surviving states joined. Both dead means the
// edge is dead.
func refineOr(a *analysis, st state, l minic.Expr, senseL bool, r minic.Expr, senseR bool, inRegion bool) bool {
	ls := append(state(nil), st...)
	lok := refineInto(a, ls, l, senseL, inRegion)
	rok := refineInto(a, st, r, senseR, inRegion)
	switch {
	case lok && rok:
		joinStates(st, ls, st)
	case lok:
		copy(st, ls)
	}
	return lok || rok
}

// excludeZero trims a zero endpoint off the interval (a full != split
// would need disjunctions; endpoint trimming is the sound fragment).
func excludeZero(v Val) Val {
	if !v.C.member(0) {
		return v
	}
	if v.I.HasLo && v.I.Lo == 0 {
		return v.meet(intervalVal(AtLeast(1)))
	}
	if v.I.HasHi && v.I.Hi == 0 {
		return v.meet(intervalVal(AtMost(-1)))
	}
	if c, ok := v.constVal(); ok && c == 0 {
		return bottomVal()
	}
	return v
}

// refineCmp narrows identifier operands of a comparison. Both sides are
// evaluated first; then each side that is a refinable identifier is met
// with the bound implied by the other side's value.
func refineCmp(a *analysis, st state, x *minic.Binary, sense bool, inRegion bool) bool {
	if !isIntExpr(x.L) || !isIntExpr(x.R) {
		return true
	}
	// Normalize to op in {<, <=, ==, !=} with the stated sense.
	op := x.Op
	l, r := x.L, x.R
	switch op {
	case minic.OpGt:
		op, l, r = minic.OpLt, r, l
	case minic.OpGe:
		op, l, r = minic.OpLe, r, l
	}
	if !sense {
		switch op {
		case minic.OpLt: // !(l < r)  ==  r <= l
			op, l, r = minic.OpLe, r, l
		case minic.OpLe: // !(l <= r) ==  r < l
			op, l, r = minic.OpLt, r, l
		case minic.OpEq:
			op = minic.OpNe
		case minic.OpNe:
			op = minic.OpEq
		}
	}

	ev := &evaluator{a: a, st: st, inRegion: inRegion}
	lv := ev.expr(l)
	rv := ev.expr(r)
	if lv.isBottom() || rv.isBottom() {
		return false
	}

	lvar := refinable(a, l, inRegion)
	rvar := refinable(a, r, inRegion)

	apply := func(v *variable, nv Val) bool {
		if nv.isBottom() {
			return false
		}
		if v != nil {
			st.set(v.id, nv)
		}
		return true
	}

	switch op {
	case minic.OpLt: // l < r
		var nl, nr Val = lv, rv
		if rv.I.HasHi && rv.I.Hi > -1<<62 {
			nl = lv.meet(intervalVal(AtMost(rv.I.Hi - 1)))
		}
		if lv.I.HasLo && lv.I.Lo < 1<<62 {
			nr = rv.meet(intervalVal(AtLeast(lv.I.Lo + 1)))
		}
		return apply(lvar, nl) && apply(rvar, nr)
	case minic.OpLe: // l <= r
		var nl, nr Val = lv, rv
		if rv.I.HasHi {
			nl = lv.meet(intervalVal(AtMost(rv.I.Hi)))
		}
		if lv.I.HasLo {
			nr = rv.meet(intervalVal(AtLeast(lv.I.Lo)))
		}
		return apply(lvar, nl) && apply(rvar, nr)
	case minic.OpEq:
		m := lv.meet(rv)
		return apply(lvar, m) && apply(rvar, m)
	case minic.OpNe:
		nl, nr := trimNe(lv, rv), trimNe(rv, lv)
		return apply(lvar, nl) && apply(rvar, nr)
	}
	return true
}

// refinable returns the tracked variable behind e when its state entry
// may be narrowed, else nil.
func refinable(a *analysis, e minic.Expr, inRegion bool) *variable {
	id, ok := e.(*minic.Ident)
	if !ok {
		return nil
	}
	v := a.res.useOf[id]
	if v == nil || !v.tracked || (v.sharedMut && inRegion) {
		return nil
	}
	return v
}

// trimNe refines a under "a != b": when b is an exact constant sitting
// on an endpoint of a, the endpoint moves inward; an interior hole is
// not representable and a is returned unchanged.
func trimNe(a, b Val) Val {
	c, ok := b.constVal()
	if !ok || !a.I.Contains(c) || !a.C.member(c) {
		return a
	}
	if v, isC := a.constVal(); isC && v == c {
		return bottomVal()
	}
	if a.I.HasLo && a.I.Lo == c {
		return a.meet(intervalVal(AtLeast(c + 1)))
	}
	if a.I.HasHi && a.I.Hi == c {
		return a.meet(intervalVal(AtMost(c - 1)))
	}
	return a
}
