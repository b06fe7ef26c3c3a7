package absint

import (
	"sort"

	"paravis/internal/minic"
)

// Options configures one Analyze run.
type Options struct {
	// Env maps parameter names to known concrete values (nil = symbolic).
	Env map[string]int64
	// WidenDelay is how many visits a loop head gets before widening
	// kicks in; 0 means the default, negative means widen immediately
	// (used by the fuzzer's monotonicity check).
	WidenDelay int
}

// Verdict classifies one array/vector access.
type Verdict int

// Access verdicts, weakest to strongest claim.
const (
	Unchecked Verdict = iota // no finite extent to check against
	InBounds                 // proven within bounds on every execution
	MayOOB                   // has a finite extent but not provable
	OOB                      // proven out of bounds whenever executed
)

func (v Verdict) String() string {
	switch v {
	case InBounds:
		return "in-bounds"
	case MayOOB:
		return "may-oob"
	case OOB:
		return "oob"
	}
	return "unchecked"
}

// LoopFact summarizes one for statement.
type LoopFact struct {
	Loop *minic.ForStmt
	Name string // "for@line:col", the cross-package loop key
	Pos  minic.Pos
	// Reachable: control can reach the loop head at all.
	Reachable bool
	// BodyReachable: the body can execute at least once.
	BodyReachable bool
	// Trips brackets the per-entry iteration count (body executions per
	// arrival from outside the loop). Always sound; HasHi only when the
	// induction pattern was recognized with invariant bounds.
	Trips Interval
}

// AccessFact is the bounds verdict for one array/vector access site.
type AccessFact struct {
	Node    minic.Expr // *minic.Index, *minic.VecElem or *minic.VecLoad
	Pos     minic.Pos
	Array   string
	Write   bool
	Verdict Verdict
	// BadDim/DimSize/Index describe the decisive subscript for messages:
	// the first dimension proven out (OOB) or not provable (MayOOB).
	BadDim  int
	DimSize int64
	Index   Interval
	// Elem is the flattened scalar-word index of the first element
	// touched, in exactly depend's linearization, with Width words
	// touched from it. ElemOK gates both.
	Elem   Interval
	Width  int64
	ElemOK bool
}

// DivFact is the divisor classification for one integer / or %.
type DivFact struct {
	Node       *minic.Binary
	Pos        minic.Pos
	IsRem      bool
	Divisor    Interval
	ProvenZero bool // divisor is the constant 0
	MayZero    bool // divisor has finite range containing 0
}

// CondFact marks a branch condition proven constant.
type CondFact struct {
	Stmt        minic.Stmt // *minic.IfStmt or *minic.ForStmt
	Pos         minic.Pos
	IsLoop      bool
	AlwaysTrue  bool
	AlwaysFalse bool
}

// Result is the published analysis of one function. When OK is false
// the solver did not converge within budget and no facts are claimed.
type Result struct {
	OK       bool
	NT       int
	Loops    map[*minic.ForStmt]*LoopFact
	Accesses []*AccessFact
	Divs     []*DivFact
	Conds    []*CondFact

	access map[minic.Expr]*AccessFact
}

// Loop returns the fact for st, or nil.
func (r *Result) Loop(st *minic.ForStmt) *LoopFact {
	if r == nil || !r.OK {
		return nil
	}
	return r.Loops[st]
}

// Access returns the fact for an access node, or nil.
func (r *Result) Access(e minic.Expr) *AccessFact {
	if r == nil || !r.OK {
		return nil
	}
	return r.access[e]
}

// IndexRange reports the proven flattened first-element index range of
// an access node, in depend's scalar-word linearization.
func (r *Result) IndexRange(e minic.Expr) (lo, hi int64, ok bool) {
	f := r.Access(e)
	if f == nil || !f.ElemOK || !f.Elem.Bounded() {
		return 0, 0, false
	}
	return f.Elem.Lo, f.Elem.Hi, true
}

// TripHints returns finite per-entry trip brackets keyed by the shared
// loop name, for perfbound's evaluator.
func (r *Result) TripHints() map[string][2]int64 {
	if r == nil || !r.OK {
		return nil
	}
	h := map[string][2]int64{}
	for _, lf := range r.Loops {
		if !lf.Reachable {
			h[lf.Name] = [2]int64{0, 0}
			continue
		}
		if lf.Trips.Bounded() {
			h[lf.Name] = [2]int64{lf.Trips.Lo, lf.Trips.Hi}
		}
	}
	if len(h) == 0 {
		return nil
	}
	return h
}

// Analyze runs the abstract interpreter over one function.
func Analyze(fn *minic.FuncDecl, opts Options) *Result {
	res := &Result{
		Loops:  map[*minic.ForStmt]*LoopFact{},
		access: map[minic.Expr]*AccessFact{},
	}
	if fn == nil || fn.Body == nil {
		return res
	}
	r := resolveFn(fn)
	res.NT = r.nt
	delay := opts.WidenDelay
	switch {
	case delay == 0:
		delay = defaultWidenDelay
	case delay < 0:
		delay = 0
	}
	a := newAnalysis(fn, r, opts.Env, delay)
	if !a.solve() {
		return res
	}
	res.OK = true

	col := &collector{
		a:   a,
		acc: map[minic.Expr]*accRec{},
		div: map[*minic.Binary]Val{},
		win: map[string]*winRec{},
	}
	st := a.newState()
	for _, bl := range a.g.rpo {
		in := a.in[bl.id]
		if in == nil {
			continue
		}
		copy(st, in)
		ev := &evaluator{a: a, st: st, inRegion: bl.inRegion, col: col}
		for _, ins := range bl.instrs {
			ev.instr(ins)
		}
		if bl.cond != nil {
			ev.expr(bl.cond)
		}
	}

	col.finishLoops(res)
	col.finishConds(res)
	col.finishAccesses(res)
	col.finishDivs(res)
	return res
}

// --- collector ---

type accRec struct {
	node  minic.Expr
	write bool
	vals  []Val // joined per subscript position (lane last where present)
}

type winRec struct {
	low Val
	len Val
}

type collector struct {
	a   *analysis
	acc map[minic.Expr]*accRec
	div map[*minic.Binary]Val
	win map[string]*winRec
}

func (c *collector) record(node minic.Expr, vals []Val, write bool) {
	rec, ok := c.acc[node]
	if !ok {
		cp := make([]Val, len(vals))
		copy(cp, vals)
		c.acc[node] = &accRec{node: node, vals: cp, write: write}
		return
	}
	rec.write = rec.write || write
	for i := range rec.vals {
		if i < len(vals) {
			rec.vals[i] = rec.vals[i].join(vals[i])
		}
	}
}

func (c *collector) access(x *minic.Index, vals []Val, write bool) {
	c.record(x, vals, write)
}

func (c *collector) vecElem(x *minic.VecElem, val Val) {
	c.record(x, []Val{val}, false)
}

func (c *collector) vecAccess(x *minic.VecLoad, val Val, write bool) {
	c.record(x, []Val{val}, write)
}

func (c *collector) division(x *minic.Binary, d Val) {
	if cur, ok := c.div[x]; ok {
		c.div[x] = cur.join(d)
	} else {
		c.div[x] = d
	}
}

func (c *collector) mapWindow(mc *minic.MapClause, low, length Val) {
	if mc.Low == nil {
		return
	}
	if w, ok := c.win[mc.Name]; ok {
		w.low = w.low.join(low)
		w.len = w.len.join(length)
	} else {
		c.win[mc.Name] = &winRec{low: low, len: length}
	}
}

// --- loops ---

func (c *collector) finishLoops(res *Result) {
	pre := c.a.newState()
	for st, head := range c.a.g.heads {
		lf := &LoopFact{Loop: st, Name: minic.LoopName(st), Pos: st.Pos}
		res.Loops[st] = lf
		if c.a.in[head.id] == nil {
			lf.Trips = Exact(0)
			continue
		}
		lf.Reachable = true
		if st.Cond == nil {
			lf.BodyReachable = true
			lf.Trips = AtLeast(0)
			continue
		}
		bodyOK := c.a.outT[head.id] != nil
		lf.BodyReachable = bodyOK

		trips := AtLeast(0)
		if !bodyOK {
			trips = Exact(0)
		} else {
			// The per-entry preheader state. Only pure expressions are
			// evaluated over it, so it is shared by both checks.
			have := c.a.inFlow(pre, head, head.latch)
			if t, ok := c.recognizedTrips(st, head, pre, have); ok {
				trips = trips.Meet(t)
			}
			// First-iteration check on the preheader state.
			if have && !impure(st.Cond) {
				ev := &evaluator{a: c.a, st: pre, inRegion: head.inRegion}
				switch ev.expr(st.Cond).truth() {
				case +1:
					trips = trips.Meet(AtLeast(1))
				case -1:
					trips = trips.Meet(Exact(0))
				}
			}
			if head.latch == nil {
				// Body always returns: no back edge, at most one trip.
				trips = trips.Meet(Range(0, 1))
			}
		}
		if trips.Empty {
			trips = AtLeast(0)
		}
		lf.Trips = trips
	}
}

// recognizedTrips brackets the per-entry trip count of a canonical
// counted loop: a single induction variable stepped by an invariant
// constant in the post clause and tested against an invariant bound.
// pre is the preheader state (have false: not reachable from outside).
func (c *collector) recognizedTrips(st *minic.ForStmt, head *block, pre state, have bool) (Interval, bool) {
	if impure(st.Cond) {
		return Top(), false
	}
	ivName, step, stepStmt, stepExpr := recognizeStepStmt(st)
	if ivName == "" {
		return Top(), false
	}
	// The induction variable must be an analyzable scalar and must not
	// be touched anywhere else in the loop.
	iv := c.lookupAt(st, ivName)
	if iv == nil || !iv.tracked || (iv.sharedMut && head.inRegion) {
		return Top(), false
	}
	mut := mutatedNames(st, stepStmt)
	if mut[ivName] {
		return Top(), false
	}

	if !have {
		return Top(), false
	}
	ev := &evaluator{a: c.a, st: pre, inRegion: head.inRegion}

	// The step must be an invariant constant.
	if stepExpr != nil {
		if !c.invariant(stepExpr, mut, head.inRegion) {
			return Top(), false
		}
		sc, ok := ev.expr(stepExpr).constVal()
		if !ok || sc == 0 {
			return Top(), false
		}
		if step < 0 {
			sc = -sc
		}
		step = sc
	}
	if step == 0 {
		return Top(), false
	}

	// Match the bound: iv OP bound with OP agreeing with the step sign.
	b, ok := st.Cond.(*minic.Binary)
	if !ok {
		return Top(), false
	}
	op := b.Op
	var boundExpr minic.Expr
	switch {
	case isIdentName(b.L, ivName):
		boundExpr = b.R
	case isIdentName(b.R, ivName):
		boundExpr = b.L
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
	default:
		return Top(), false
	}
	if !c.invariant(boundExpr, mut, head.inRegion) {
		return Top(), false
	}
	bound := ev.expr(boundExpr).I
	init := ev.get(iv).I
	if bound.Empty || init.Empty {
		return Top(), false
	}

	// Normalize to an exclusive upper bound for positive steps (iv < B)
	// and an exclusive lower bound for negative steps (iv > B).
	switch {
	case step > 0 && op == minic.OpLt:
	case step > 0 && op == minic.OpLe:
		bound = bound.Add(Exact(1))
	case step < 0 && op == minic.OpGt:
	case step < 0 && op == minic.OpGe:
		bound = bound.Add(Exact(-1))
	default:
		return Top(), false
	}

	// trips = max(0, ceil((B - I) / S)) for S > 0, and the mirrored form
	// for S < 0; interval ends pair the extremes soundly.
	r := Interval{HasLo: true, Lo: 0}
	if step > 0 {
		if bound.HasHi && init.HasLo {
			if d, ok := subOv(bound.Hi, init.Lo); ok {
				r.HasHi, r.Hi = true, max64(0, ceilDiv(d, step))
			}
		}
		if bound.HasLo && init.HasHi {
			if d, ok := subOv(bound.Lo, init.Hi); ok {
				r.Lo = max64(0, ceilDiv(d, step))
			}
		}
	} else {
		s := -step
		if init.HasHi && bound.HasLo {
			if d, ok := subOv(init.Hi, bound.Lo); ok {
				r.HasHi, r.Hi = true, max64(0, ceilDiv(d, s))
			}
		}
		if init.HasLo && bound.HasHi {
			if d, ok := subOv(init.Lo, bound.Hi); ok {
				r.Lo = max64(0, ceilDiv(d, s))
			}
		}
	}
	return r, true
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// recognizeStepStmt finds the post clause stepping the candidate
// induction variable: `iv++`, `iv--`, `iv += e`, `iv -= e`, or
// `iv = iv + e` (and the commuted/subtracted forms). step carries the
// sign for the IncDec forms and the +-1/-1 direction otherwise (the
// caller folds the expression value in).
func recognizeStepStmt(st *minic.ForStmt) (ivName string, step int64, stepStmt minic.Stmt, stepExpr minic.Expr) {
	for _, s := range st.Post {
		es, ok := s.(*minic.ExprStmt)
		if !ok {
			continue
		}
		switch x := es.X.(type) {
		case *minic.IncDec:
			if id, ok := x.X.(*minic.Ident); ok && condMentions(st.Cond, id.Name) {
				if x.Inc {
					return id.Name, 1, s, nil
				}
				return id.Name, -1, s, nil
			}
		case *minic.AssignExpr:
			id, ok := x.LHS.(*minic.Ident)
			if !ok || !condMentions(st.Cond, id.Name) {
				continue
			}
			if x.Op != nil && (*x.Op == minic.OpAdd || *x.Op == minic.OpSub) {
				dir := int64(1)
				if *x.Op == minic.OpSub {
					dir = -1
				}
				return id.Name, dir, s, x.RHS
			}
			if x.Op == nil {
				if b, ok := x.RHS.(*minic.Binary); ok {
					switch {
					case b.Op == minic.OpAdd && isIdentName(b.L, id.Name):
						return id.Name, 1, s, b.R
					case b.Op == minic.OpAdd && isIdentName(b.R, id.Name):
						return id.Name, 1, s, b.L
					case b.Op == minic.OpSub && isIdentName(b.L, id.Name):
						return id.Name, -1, s, b.R
					}
				}
			}
		}
	}
	return "", 0, nil, nil
}

func isIdentName(e minic.Expr, name string) bool {
	id, ok := e.(*minic.Ident)
	return ok && id.Name == name
}

func condMentions(cond minic.Expr, name string) bool {
	b, ok := cond.(*minic.Binary)
	if !ok || !b.Op.IsComparison() {
		return false
	}
	return isIdentName(b.L, name) || isIdentName(b.R, name)
}

// lookupAt resolves name as seen by the loop condition (any Ident of
// that name inside the condition or body shares the resolution).
func (c *collector) lookupAt(st *minic.ForStmt, name string) *variable {
	var found *variable
	var scan func(e minic.Expr)
	scan = func(e minic.Expr) {
		if found != nil || e == nil {
			return
		}
		if id, ok := e.(*minic.Ident); ok {
			if id.Name == name {
				found = c.a.res.useOf[id]
			}
			return
		}
		for _, sub := range children(e) {
			scan(sub)
		}
	}
	scan(st.Cond)
	return found
}

// mutatedNames collects every name assigned (or declared, which shadows)
// inside the loop body, condition and post clauses, except the
// recognized step statement itself.
func mutatedNames(st *minic.ForStmt, skip minic.Stmt) map[string]bool {
	mut := map[string]bool{}
	var walkS func(s minic.Stmt)
	var walkE func(e minic.Expr)
	walkE = func(e minic.Expr) {
		if e == nil {
			return
		}
		switch x := e.(type) {
		case *minic.AssignExpr:
			if id, ok := x.LHS.(*minic.Ident); ok {
				mut[id.Name] = true
			}
		case *minic.IncDec:
			if id, ok := x.X.(*minic.Ident); ok {
				mut[id.Name] = true
			}
		}
		for _, sub := range children(e) {
			walkE(sub)
		}
	}
	walkS = func(s minic.Stmt) {
		if s == skip {
			return
		}
		switch x := s.(type) {
		case *minic.BlockStmt:
			for _, cs := range x.Stmts {
				walkS(cs)
			}
		case *minic.DeclStmt:
			mut[x.Name] = true
			walkE(x.Init)
		case *minic.ExprStmt:
			walkE(x.X)
		case *minic.ForStmt:
			for _, cs := range x.Init {
				walkS(cs)
			}
			walkE(x.Cond)
			walkS(x.Body)
			for _, cs := range x.Post {
				walkS(cs)
			}
		case *minic.IfStmt:
			walkE(x.Cond)
			walkS(x.Then)
			if x.Else != nil {
				walkS(x.Else)
			}
		case *minic.ReturnStmt:
			walkE(x.X)
		case *minic.CriticalStmt:
			walkS(x.Body)
		case *minic.TargetStmt:
			walkS(x.Body)
		}
	}
	walkE(st.Cond)
	walkS(st.Body)
	for _, s := range st.Post {
		walkS(s)
	}
	return mut
}

// invariant reports whether e evaluates to the same value on every
// iteration: all free identifiers unmutated in the loop and (inside a
// region) not shared-mutable, and all calls the omp builtins.
func (c *collector) invariant(e minic.Expr, mut map[string]bool, inRegion bool) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *minic.Ident:
		if mut[x.Name] {
			return false
		}
		v := c.a.res.useOf[x]
		if v != nil && v.sharedMut && inRegion {
			return false
		}
		return true
	case *minic.Call:
		if x.Name != "omp_get_thread_num" && x.Name != "omp_get_num_threads" {
			return false
		}
		return true
	case *minic.AssignExpr, *minic.IncDec:
		return false
	}
	for _, sub := range children(e) {
		if !c.invariant(sub, mut, inRegion) {
			return false
		}
	}
	return true
}

// --- conditions ---

func (c *collector) finishConds(res *Result) {
	for _, bl := range c.a.g.rpo {
		if bl.cond == nil || bl.condStmt == nil {
			continue
		}
		if c.a.in[bl.id] == nil {
			continue
		}
		tOK, fOK := c.a.outT[bl.id] != nil, c.a.outF[bl.id] != nil
		if tOK == fOK {
			continue // undecided, or bottom on both edges
		}
		cf := &CondFact{Stmt: bl.condStmt, IsLoop: bl.isLoopHead, AlwaysTrue: !fOK, AlwaysFalse: !tOK}
		switch s := bl.condStmt.(type) {
		case *minic.IfStmt:
			cf.Pos = s.Pos
		case *minic.ForStmt:
			cf.Pos = s.Pos
		}
		res.Conds = append(res.Conds, cf)
	}
	sort.Slice(res.Conds, func(i, j int) bool { return posLess(res.Conds[i].Pos, res.Conds[j].Pos) })
}

func posLess(a, b minic.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// --- accesses ---

func (c *collector) finishAccesses(res *Result) {
	for node, rec := range c.acc {
		f := c.finalizeAccess(node, rec)
		if f == nil {
			continue
		}
		res.Accesses = append(res.Accesses, f)
		res.access[node] = f
	}
	sort.Slice(res.Accesses, func(i, j int) bool {
		a, b := res.Accesses[i], res.Accesses[j]
		if a.Pos != b.Pos {
			return posLess(a.Pos, b.Pos)
		}
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		return !a.Write && b.Write
	})
}

func (c *collector) finalizeAccess(node minic.Expr, rec *accRec) *AccessFact {
	switch x := node.(type) {
	case *minic.Index:
		return c.finalizeIndex(x, rec)
	case *minic.VecElem:
		f := &AccessFact{Node: x, Pos: x.Pos, Write: rec.write, Width: 1}
		if id, ok := x.Vec.(*minic.Ident); ok {
			f.Array = id.Name
		}
		lanes := 0
		if t := x.Vec.Type(); t != nil && t.Lanes > 1 {
			lanes = t.Lanes
		}
		if lanes == 0 {
			f.Verdict = Unchecked
			return f
		}
		f.Verdict, f.Index = judge(rec.vals[0], 0, int64(lanes)-1)
		f.BadDim, f.DimSize = 0, int64(lanes)
		return f
	case *minic.VecLoad:
		f := &AccessFact{Node: x, Pos: x.Pos, Write: rec.write, Width: 1}
		if t := x.Type(); t != nil && t.Lanes > 1 {
			f.Width = int64(t.Lanes)
		}
		id, ok := x.Base.(*minic.Ident)
		if !ok {
			f.Verdict = Unchecked
			return f
		}
		f.Array = id.Name
		v := c.a.res.useOf[id]
		if v == nil {
			f.Verdict = Unchecked
			return f
		}
		f.Elem, f.ElemOK = rec.vals[0].I, true
		if len(v.dims) > 0 {
			total := int64(max(1, v.lanes))
			for _, d := range v.dims {
				total *= int64(d)
			}
			f.Verdict, f.Index = judge(rec.vals[0], 0, total-f.Width)
			f.BadDim, f.DimSize = -1, total
			return f
		}
		if lo, hi, ok := c.window(id.Name); ok {
			f.Verdict, f.Index = judge(rec.vals[0], lo, hi-f.Width+1)
			f.BadDim, f.DimSize = -1, hi-lo+1
			return f
		}
		f.Verdict = Unchecked
		return f
	}
	return nil
}

func (c *collector) finalizeIndex(x *minic.Index, rec *accRec) *AccessFact {
	f := &AccessFact{Node: x, Pos: x.Pos, Write: rec.write, Width: 1, BadDim: -1}
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		f.Verdict = Unchecked
		return f
	}
	f.Array = id.Name
	v := c.a.res.useOf[id]
	if v == nil {
		f.Verdict = Unchecked
		return f
	}
	dram := v.typ != nil && v.typ.IsPointer()
	switch {
	case dram && len(x.Idx) == 1:
		f.Elem, f.ElemOK = rec.vals[0].I, true
		if lo, hi, ok := c.window(id.Name); ok {
			f.Verdict, f.Index = judge(rec.vals[0], lo, hi)
			f.BadDim, f.DimSize = 0, hi-lo+1
		} else {
			f.Verdict = Unchecked
		}
		return f
	case len(v.dims) > 0 && len(x.Idx) == len(v.dims):
		lanes := int64(max(1, v.lanes))
		f.Width = lanes
		f.Elem, f.ElemOK = linearizeVals(rec.vals, v.dims, lanes).I, true
		f.Verdict = InBounds
		for i, d := range v.dims {
			verdict, idx := judge(rec.vals[i], 0, int64(d)-1)
			if worse(verdict, f.Verdict) {
				f.Verdict, f.BadDim, f.DimSize, f.Index = verdict, i, int64(d), idx
				if verdict == OOB {
					break
				}
			}
		}
		return f
	case len(v.dims) > 0 && len(x.Idx) == len(v.dims)+1 && v.lanes > 1:
		// Lane access into a vector-element array.
		lanes := int64(v.lanes)
		elem := linearizeVals(rec.vals[:len(rec.vals)-1], v.dims, lanes)
		f.Elem, f.ElemOK = elem.add(rec.vals[len(rec.vals)-1]).I, true
		f.Verdict = InBounds
		for i, d := range v.dims {
			verdict, idx := judge(rec.vals[i], 0, int64(d)-1)
			if worse(verdict, f.Verdict) {
				f.Verdict, f.BadDim, f.DimSize, f.Index = verdict, i, int64(d), idx
			}
		}
		if f.Verdict != OOB {
			verdict, idx := judge(rec.vals[len(rec.vals)-1], 0, lanes-1)
			if worse(verdict, f.Verdict) {
				f.Verdict, f.BadDim, f.DimSize, f.Index = verdict, len(v.dims), lanes, idx
			}
		}
		return f
	default:
		f.Verdict = Unchecked
		return f
	}
}

// judge classifies one subscript value against the inclusive safe range
// [lo, hi]: inside on every execution, provably outside, or undecided.
func judge(v Val, lo, hi int64) (Verdict, Interval) {
	if lo > hi {
		return OOB, v.I
	}
	if v.I.HasLo && v.I.Lo >= lo && v.I.HasHi && v.I.Hi <= hi {
		return InBounds, v.I
	}
	if v.meet(intervalVal(Range(lo, hi))).isBottom() {
		return OOB, v.I
	}
	return MayOOB, v.I
}

func worse(a, b Verdict) bool {
	rank := func(v Verdict) int {
		switch v {
		case OOB:
			return 2
		case MayOOB:
			return 1
		}
		return 0
	}
	return rank(a) > rank(b)
}

// linearizeVals mirrors depend's scalar-word flattening:
// ((i0*d1 + i1)...)*lanes.
func linearizeVals(vals []Val, dims []int, lanes int64) Val {
	acc := vals[0]
	for i := 1; i < len(vals); i++ {
		acc = acc.mul(exactVal(int64(dims[i]))).add(vals[i])
	}
	return acc.mul(exactVal(lanes))
}

// window returns the mapped DRAM window [lo, hi] for a pointer
// parameter when the map clause extent was a compile-time constant.
func (c *collector) window(name string) (lo, hi int64, ok bool) {
	w, found := c.win[name]
	if !found {
		return 0, 0, false
	}
	l, okL := w.low.constVal()
	n, okN := w.len.constVal()
	if !okL || !okN || n <= 0 {
		return 0, 0, false
	}
	h, okA := addOv(l, n-1)
	if !okA {
		return 0, 0, false
	}
	return l, h, true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- divisions ---

func (c *collector) finishDivs(res *Result) {
	for node, d := range c.div {
		f := &DivFact{Node: node, Pos: node.Pos, IsRem: node.Op == minic.OpRem, Divisor: d.I}
		if cv, ok := d.constVal(); ok && cv == 0 {
			f.ProvenZero = true
		} else if d.I.Bounded() && d.I.Contains(0) && d.C.member(0) {
			f.MayZero = true
		}
		res.Divs = append(res.Divs, f)
	}
	sort.Slice(res.Divs, func(i, j int) bool { return posLess(res.Divs[i].Pos, res.Divs[j].Pos) })
}
