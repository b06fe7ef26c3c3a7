package lower

import (
	"fmt"

	"paravis/internal/ir"
	"paravis/internal/minic"
)

func (lw *lowerer) lowerBlock(g *gctx, b *minic.BlockStmt) error {
	lw.pushScope()
	defer lw.popScope()
	for _, s := range b.Stmts {
		if err := lw.lowerStmt(g, s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(g *gctx, s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.BlockStmt:
		return lw.lowerBlock(g, st)
	case *minic.DeclStmt:
		return lw.lowerDecl(g, st)
	case *minic.ExprStmt:
		_, err := lw.lowerExpr(g, st.X)
		return err
	case *minic.ForStmt:
		return lw.lowerFor(g, st)
	case *minic.IfStmt:
		return lw.lowerIf(g, st)
	case *minic.CriticalStmt:
		return lw.lowerCritical(g, st)
	case *minic.BarrierStmt:
		if g.pred != nil {
			return lw.errf(st.Pos, "barrier inside a conditional would deadlock")
		}
		n := g.b.Barrier()
		lw.attachFence(g, n)
		return nil
	case *minic.ReturnStmt:
		return lw.errf(st.Pos, "return inside target region")
	case *minic.TargetStmt:
		return lw.errf(st.Pos, "nested target region")
	}
	return lw.errf(minic.StmtPos(s), "unhandled statement %T", s)
}

func (lw *lowerer) lowerDecl(g *gctx, st *minic.DeclStmt) error {
	if st.Typ.IsArray() {
		// Per-thread BRAM buffer. The same declaration site always refers
		// to the same physical BRAM (loop bodies re-enter the same block).
		arr, ok := lw.localByDecl[st]
		if !ok {
			elemWords := st.Typ.Elem.ScalarWords()
			n := 1
			for _, d := range st.Typ.Dims {
				n *= d
			}
			la := ir.LocalArray{
				ID:        len(lw.k.Locals),
				Name:      fmt.Sprintf("%s@%s", st.Name, st.Pos),
				ElemWords: elemWords,
				NumElems:  n,
			}
			lw.k.Locals = append(lw.k.Locals, la)
			arr = &ir.ArrayRef{Space: ir.SpaceLocal, Name: st.Name, LocalID: la.ID, ElemWords: elemWords}
			lw.localByDecl[st] = arr
		}
		lw.scope.vars[st.Name] = &slot{name: st.Name, typ: st.Typ, st: stLocalArr, arr: arr}
		return nil
	}
	sl := &slot{name: st.Name, typ: st.Typ, st: stSSA, gdef: g}
	var val *ir.Node
	var err error
	if st.Init != nil {
		val, err = lw.lowerExpr(g, st.Init)
		if err != nil {
			return err
		}
	} else {
		kind, lanes := irKind(st.Typ)
		switch kind {
		case ir.KindFloat:
			val = g.b.ConstFloat(0)
		case ir.KindVec:
			val = g.b.Splat(g.b.ConstFloat(0), lanes)
		default:
			val = g.b.ConstInt(0)
		}
	}
	g.local[sl] = val
	lw.scope.vars[st.Name] = sl
	return nil
}

// lowerFor lowers a for loop: init statements run in the parent graph, the
// body+cond+post become a new graph embedded as a LoopOp node.
func (lw *lowerer) lowerFor(g *gctx, st *minic.ForStmt) error {
	if st.Unroll > 1 {
		un, err := unrollFor(st)
		if err != nil {
			return err
		}
		st = un
	}

	lw.pushScope()
	defer lw.popScope()
	for _, is := range st.Init {
		if err := lw.lowerStmt(g, is); err != nil {
			return err
		}
	}

	// Determine carried slots: free variables assigned inside body/post
	// that resolve to SSA slots declared outside the loop graph.
	assigned := assignedFreeVars(append(append([]minic.Stmt{}, st.Body.Stmts...), st.Post...))
	sub := lw.newGctx(g, minic.LoopName(st))
	var carrySlots []*slot
	for _, name := range assigned {
		sl := lw.scope.lookup(name)
		if sl == nil || sl.st != stSSA {
			continue
		}
		carrySlots = append(carrySlots, sl)
	}
	sub.carried = carrySlots
	for i, sl := range carrySlots {
		init, err := g.read(sl)
		if err != nil {
			return err
		}
		sub.carryInits = append(sub.carryInits, init)
		kind, lanes := irKind(sl.typ)
		sub.local[sl] = sub.b.Carry(i, kind, lanes)
	}

	// Loop-continue condition, evaluated at the top of each iteration.
	if st.Cond != nil {
		cond, err := lw.lowerExpr(sub, st.Cond)
		if err != nil {
			return err
		}
		sub.b.Graph().Cond = cond
	} else {
		sub.b.Graph().Cond = sub.b.ConstInt(1)
	}

	if err := lw.lowerBlock(sub, st.Body); err != nil {
		return err
	}
	for _, ps := range st.Post {
		if err := lw.lowerStmt(sub, ps); err != nil {
			return err
		}
	}

	subGraph := sub.b.Graph()
	subGraph.CarryUpdate = make([]*ir.Node, len(carrySlots))
	for i, sl := range carrySlots {
		cur, err := sub.read(sl)
		if err != nil {
			return err
		}
		subGraph.CarryUpdate[i] = cur
	}

	// Embed the loop in the parent graph.
	args := append(append([]*ir.Node{}, sub.liveArgs...), sub.carryInits...)
	loopNode := g.b.Loop(subGraph, args...)
	loopNode.Pred = g.pred
	lw.attachLoop(g, loopNode, subGraph)

	// After the loop the parent sees the final carried values.
	for i, sl := range carrySlots {
		kind, lanes := irKind(sl.typ)
		out := g.b.LoopOut(loopNode, i, kind, lanes)
		g.write(sl, out)
	}
	return nil
}

// unrollFor rewrites a `#pragma unroll f` loop into an equivalent loop whose
// body contains f guarded replicas of the original body:
//
//	for(init; C; ) { B; P; if(C){ B; P; if(C){ ... }}}
//
// This preserves semantics for arbitrary trip counts (trailing replicas are
// predicated off), matching how HLS unrolling emits guarded copies.
func unrollFor(st *minic.ForStmt) (*minic.ForStmt, error) {
	if len(st.Post) == 0 {
		return nil, &Error{Pos: st.Pos, Msg: "#pragma unroll requires a loop increment"}
	}
	if st.Cond == nil {
		return nil, &Error{Pos: st.Pos, Msg: "#pragma unroll requires a loop condition"}
	}
	replica := func(inner []minic.Stmt) []minic.Stmt {
		stmts := append([]minic.Stmt{}, st.Body.Stmts...)
		stmts = append(stmts, st.Post...)
		if inner != nil {
			stmts = append(stmts, &minic.IfStmt{
				Cond: st.Cond,
				Then: &minic.BlockStmt{Stmts: inner, Pos: st.Pos},
				Pos:  st.Pos,
			})
		}
		return stmts
	}
	var inner []minic.Stmt
	for i := 0; i < st.Unroll; i++ {
		inner = replica(inner)
	}
	return &minic.ForStmt{
		Init: st.Init,
		Cond: st.Cond,
		Post: nil,
		Body: &minic.BlockStmt{Stmts: inner, Pos: st.Body.Pos},
		Pos:  st.Pos,
	}, nil
}

// assignedFreeVars returns the names assigned anywhere in stmts that are
// not declared within stmts before the assignment (i.e. variables of an
// enclosing scope mutated by the loop).
func assignedFreeVars(stmts []minic.Stmt) []string {
	declared := map[string]bool{}
	seen := map[string]bool{}
	var order []string
	note := func(name string) {
		if !declared[name] && !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
	}
	var walkExpr func(e minic.Expr)
	var walkStmt func(s minic.Stmt)
	var lvalueRoot func(e minic.Expr)
	lvalueRoot = func(e minic.Expr) {
		switch x := e.(type) {
		case *minic.Ident:
			note(x.Name)
		case *minic.VecElem:
			lvalueRoot(x.Vec)
		case *minic.Index, *minic.VecLoad:
			// Memory writes, not SSA writes.
		}
	}
	walkExpr = func(e minic.Expr) {
		switch x := e.(type) {
		case *minic.AssignExpr:
			lvalueRoot(x.LHS)
			walkExpr(x.RHS)
		case *minic.IncDec:
			lvalueRoot(x.X)
		case *minic.Binary:
			walkExpr(x.L)
			walkExpr(x.R)
		case *minic.Unary:
			walkExpr(x.X)
		case *minic.Cond:
			walkExpr(x.C)
			walkExpr(x.A)
			walkExpr(x.B)
		case *minic.Cast:
			walkExpr(x.X)
		case *minic.Index:
			walkExpr(x.Base)
			for _, i := range x.Idx {
				walkExpr(i)
			}
		case *minic.VecElem:
			walkExpr(x.Vec)
			walkExpr(x.Idx)
		case *minic.VecLoad:
			walkExpr(x.Base)
			walkExpr(x.Idx)
		case *minic.InitList:
			for _, el := range x.Elems {
				walkExpr(el)
			}
		}
	}
	walkStmt = func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.DeclStmt:
			if st.Init != nil {
				walkExpr(st.Init)
			}
			declared[st.Name] = true
		case *minic.ExprStmt:
			walkExpr(st.X)
		case *minic.BlockStmt:
			// Approximation: treat block-local declarations as declared
			// from here on; shadowing within sibling blocks is rare in
			// kernel code and extra carries are harmless.
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		case *minic.ForStmt:
			for _, is := range st.Init {
				walkStmt(is)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			for _, ps := range st.Post {
				walkStmt(ps)
			}
			walkStmt(st.Body)
		case *minic.IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *minic.CriticalStmt:
			walkStmt(st.Body)
		}
	}
	for _, s := range stmts {
		walkStmt(s)
	}
	return order
}

// lowerIf if-converts a conditional: both branches are lowered inline with
// the appropriate predicate attached to their effectful operations, and SSA
// slots written in either branch are merged with selects afterwards.
func (lw *lowerer) lowerIf(g *gctx, st *minic.IfStmt) error {
	cond, err := lw.lowerExpr(g, st.Cond)
	if err != nil {
		return err
	}
	outerPred := g.pred
	outerWrites := g.writes
	andPred := func(p *ir.Node) *ir.Node {
		if outerPred == nil {
			return p
		}
		return g.b.Bin(ir.OpAnd, outerPred, p)
	}

	// Snapshot the SSA state: any slot legally writable here already has a
	// value in g.local (declared in this graph, or installed as a carry at
	// graph entry).
	pre := make(map[*slot]*ir.Node, len(g.local))
	for sl, v := range g.local {
		pre[sl] = v
	}

	// Then branch.
	thenWrites := map[*slot]bool{}
	g.writes = thenWrites
	g.pred = andPred(cond)
	if err := lw.lowerBlock(g, st.Then); err != nil {
		return err
	}
	thenVals := make(map[*slot]*ir.Node, len(thenWrites))
	for sl := range thenWrites {
		prev, ok := pre[sl]
		if !ok {
			// Declared within the branch (e.g. a loop counter): it dies
			// with the branch scope and needs no merge.
			continue
		}
		thenVals[sl] = g.local[sl]
		g.local[sl] = prev
	}

	// Else branch.
	elseVals := map[*slot]*ir.Node{}
	if st.Else != nil {
		elseWrites := map[*slot]bool{}
		g.writes = elseWrites
		g.pred = andPred(g.b.Not(cond))
		if err := lw.lowerBlock(g, st.Else); err != nil {
			return err
		}
		for sl := range elseWrites {
			prev, ok := pre[sl]
			if !ok {
				continue // branch-local, no merge needed
			}
			elseVals[sl] = g.local[sl]
			g.local[sl] = prev
		}
	}

	g.pred = outerPred
	g.writes = outerWrites

	// Merge: slot -> select(cond, thenVal|pre, elseVal|pre).
	merged := map[*slot]bool{}
	for sl := range thenVals {
		merged[sl] = true
	}
	for sl := range elseVals {
		merged[sl] = true
	}
	for sl := range merged {
		tv, ok := thenVals[sl]
		if !ok {
			tv = pre[sl]
		}
		ev, ok := elseVals[sl]
		if !ok {
			ev = pre[sl]
		}
		if tv == ev {
			continue
		}
		g.write(sl, g.b.Select(cond, tv, ev))
	}
	return nil
}

// lowerCritical lowers an OpenMP critical section to a hardware-semaphore
// acquire, the body, and a release. All unnamed criticals share semaphore 0
// (OpenMP semantics). Lock and unlock are full fences: the memory
// operations of the protected body may not be reordered across them.
func (lw *lowerer) lowerCritical(g *gctx, st *minic.CriticalStmt) error {
	if lw.k.NumSems == 0 {
		lw.k.NumSems = 1
	}
	lock := g.b.Lock(0)
	lock.Pred = g.pred
	lw.attachFence(g, lock)
	if err := lw.lowerBlock(g, st.Body); err != nil {
		return err
	}
	unlock := g.b.Unlock(0)
	unlock.Pred = g.pred
	lw.attachFence(g, unlock)
	return nil
}

// --- Effect ordering ---

// attachMem orders a load/store against conflicting earlier operations:
// stores wait for all prior accesses to the same array; loads wait for the
// last prior store to the same array. Everything waits for the last fence.
func (lw *lowerer) attachMem(g *gctx, n *ir.Node, isStore bool) {
	key := arrayKey(n.Arr)
	e := g.eff
	add := func(d *ir.Node) {
		if d != nil && d != n {
			n.EffectDeps = append(n.EffectDeps, d)
		}
	}
	add(e.lastFence)
	if isStore {
		add(e.lastStore[key])
		for _, ld := range e.loadsSince[key] {
			add(ld)
		}
		e.lastStore[key] = n
		e.loadsSince[key] = nil
	} else {
		add(e.lastStore[key])
		e.loadsSince[key] = append(e.loadsSince[key], n)
	}
	e.sinceFence = append(e.sinceFence, n)
}

// attachFence orders a lock/unlock/barrier after every effectful operation
// issued since the previous fence and makes later effects wait for it.
func (lw *lowerer) attachFence(g *gctx, n *ir.Node) {
	e := g.eff
	if e.lastFence != nil {
		n.EffectDeps = append(n.EffectDeps, e.lastFence)
	}
	n.EffectDeps = append(n.EffectDeps, e.sinceFence...)
	e.lastFence = n
	e.sinceFence = nil
	e.lastStore = make(map[string]*ir.Node)
	e.loadsSince = make(map[string][]*ir.Node)
}

// attachLoop orders a nested loop like a combined access to every array its
// body touches; bodies containing synchronization act as fences.
func (lw *lowerer) attachLoop(g *gctx, n *ir.Node, sub *ir.Graph) {
	reads, writes, hasSync := summarizeGraph(sub)
	if hasSync {
		lw.attachFence(g, n)
		return
	}
	e := g.eff
	add := func(d *ir.Node) {
		if d != nil && d != n {
			n.EffectDeps = append(n.EffectDeps, d)
		}
	}
	add(e.lastFence)
	for key := range writes {
		add(e.lastStore[key])
		for _, ld := range e.loadsSince[key] {
			add(ld)
		}
		e.lastStore[key] = n
		e.loadsSince[key] = nil
	}
	for key := range reads {
		if writes[key] {
			continue
		}
		add(e.lastStore[key])
		e.loadsSince[key] = append(e.loadsSince[key], n)
	}
	e.sinceFence = append(e.sinceFence, n)
}

func arrayKey(a *ir.ArrayRef) string {
	if a.Space == ir.SpaceLocal {
		return fmt.Sprintf("local:%d", a.LocalID)
	}
	return "ext:" + a.Name
}

// summarizeGraph walks a graph (and nested loops) and reports the arrays it
// reads and writes and whether it synchronizes.
func summarizeGraph(g *ir.Graph) (reads, writes map[string]bool, hasSync bool) {
	reads = map[string]bool{}
	writes = map[string]bool{}
	var walk func(gr *ir.Graph)
	walk = func(gr *ir.Graph) {
		for _, n := range gr.Nodes {
			switch n.Op {
			case ir.OpLoad:
				reads[arrayKey(n.Arr)] = true
			case ir.OpStore:
				writes[arrayKey(n.Arr)] = true
			case ir.OpLock, ir.OpUnlock, ir.OpBarrier:
				hasSync = true
			case ir.OpLoopOp:
				walk(n.Sub)
			}
		}
	}
	walk(g)
	return reads, writes, hasSync
}
