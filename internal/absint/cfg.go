package absint

import "paravis/internal/minic"

// This file lowers the structured statement AST to an explicit control
// flow graph the fixpoint solver iterates over. MiniC has no break,
// continue or goto, so the only back edges are for-loop latches and
// every cycle passes through a loop-head block — the widening points.

type instrKind int

const (
	ikStmt instrKind = iota // DeclStmt / ExprStmt / BarrierStmt
	ikTargetEnter
	ikTargetExit
)

type instr struct {
	kind instrKind
	s    minic.Stmt
	ts   *minic.TargetStmt // for enter/exit
}

// block is one straight-line run of instructions ended by either an
// unconditional jump (cond nil, next possibly nil = function exit) or a
// two-way branch on cond (tsucc / fsucc).
type block struct {
	id     int
	instrs []instr

	cond     minic.Expr
	condStmt minic.Stmt // the IfStmt/ForStmt owning cond, for reporting
	impure   bool       // cond has side effects (see refine)
	tsucc    *block
	fsucc    *block
	next     *block

	isLoopHead bool
	loop       *minic.ForStmt
	latch      *block // the back-edge predecessor of a loop head
	inRegion   bool

	preds []*block
	order int // reverse-postorder index
}

type cfg struct {
	entry  *block
	blocks []*block
	rpo    []*block
	heads  map[*minic.ForStmt]*block
}

type cfgBuilder struct {
	g        *cfg
	inRegion bool
}

func (b *cfgBuilder) newBlock() *block {
	bl := &block{id: len(b.g.blocks), inRegion: b.inRegion}
	b.g.blocks = append(b.g.blocks, bl)
	return bl
}

// buildCFG lowers the function body. Unreachable trailing code (after a
// return) still gets blocks; they simply never receive a flow state.
func buildCFG(fn *minic.FuncDecl) *cfg {
	g := &cfg{heads: map[*minic.ForStmt]*block{}}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	end := b.stmt(g.entry, fn.Body)
	if end != nil {
		end.next = nil
	}
	g.wire()
	for _, bl := range g.blocks {
		bl.impure = bl.cond != nil && impure(bl.cond)
	}
	return g
}

// stmt appends s to cur and returns the block where control continues,
// or nil when the path returned.
func (b *cfgBuilder) stmt(cur *block, s minic.Stmt) *block {
	if cur == nil {
		// Dead code after a return: give it an unreachable block so the
		// walk stays uniform.
		cur = b.newBlock()
	}
	switch st := s.(type) {
	case *minic.BlockStmt:
		for _, c := range st.Stmts {
			cur = b.stmt(cur, c)
		}
		return cur
	case *minic.DeclStmt, *minic.ExprStmt, *minic.BarrierStmt:
		cur.instrs = append(cur.instrs, instr{kind: ikStmt, s: s})
		return cur
	case *minic.ReturnStmt:
		cur.instrs = append(cur.instrs, instr{kind: ikStmt, s: s})
		cur.next = nil
		return nil
	case *minic.CriticalStmt:
		return b.stmt(cur, st.Body)
	case *minic.IfStmt:
		thenB := b.newBlock()
		after := b.newBlock()
		cur.cond, cur.condStmt = st.Cond, st
		cur.tsucc = thenB
		if st.Else != nil {
			elseB := b.newBlock()
			cur.fsucc = elseB
			if end := b.stmt(elseB, st.Else); end != nil {
				end.next = after
			}
		} else {
			cur.fsucc = after
		}
		if end := b.stmt(thenB, st.Then); end != nil {
			end.next = after
		}
		return after
	case *minic.ForStmt:
		for _, c := range st.Init {
			cur = b.stmt(cur, c)
		}
		head := b.newBlock()
		head.isLoopHead = true
		head.loop = st
		b.g.heads[st] = head
		cur.next = head
		body := b.newBlock()
		after := b.newBlock()
		if st.Cond != nil {
			head.cond, head.condStmt = st.Cond, st
			head.tsucc, head.fsucc = body, after
		} else {
			head.next = body // for(;;): after is unreachable
		}
		end := b.stmt(body, st.Body)
		for _, c := range st.Post {
			end = b.stmt(end, c)
		}
		if end != nil {
			end.next = head
			head.latch = end
		}
		return after
	case *minic.TargetStmt:
		cur.instrs = append(cur.instrs, instr{kind: ikTargetEnter, s: st, ts: st})
		saved := b.inRegion
		b.inRegion = true
		bodyB := b.newBlock()
		cur.next = bodyB
		end := b.stmt(bodyB, st.Body)
		b.inRegion = saved
		after := b.newBlock()
		if end != nil {
			end.next = after
		}
		after.instrs = append(after.instrs, instr{kind: ikTargetExit, s: st, ts: st})
		return after
	}
	return cur
}

func (bl *block) succs() []*block {
	if bl.cond != nil {
		if bl.tsucc == bl.fsucc {
			return []*block{bl.tsucc}
		}
		return []*block{bl.tsucc, bl.fsucc}
	}
	if bl.next != nil {
		return []*block{bl.next}
	}
	return nil
}

// wire fills predecessor lists and the reverse postorder.
func (g *cfg) wire() {
	for _, bl := range g.blocks {
		for _, s := range bl.succs() {
			s.preds = append(s.preds, bl)
		}
	}
	seen := make([]bool, len(g.blocks))
	var post []*block
	var dfs func(bl *block)
	dfs = func(bl *block) {
		if seen[bl.id] {
			return
		}
		seen[bl.id] = true
		for _, s := range bl.succs() {
			dfs(s)
		}
		post = append(post, bl)
	}
	dfs(g.entry)
	for i := len(post) - 1; i >= 0; i-- {
		bl := post[i]
		bl.order = len(g.rpo)
		g.rpo = append(g.rpo, bl)
	}
}
