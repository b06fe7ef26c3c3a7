package transform

import (
	"paravis/internal/minic"
)

// gemmNest is the matmul-shaped nest blockBRAM recognizes:
//
//	for (i ...) for (j = 0..D) { acc = 0; for (k = 0..D) acc += A[i*D+k] * B[k*D+j]; C[i*D+j] = acc; }
//
// with the i loop either plain or thread-strided. The subscripts are
// matched by row/column decomposition against the shared bound D, so
// defines other than DIM and accumulators other than `sum` all work.
type gemmNest struct {
	iLoop, jLoop, kLoop *minic.ForStmt
	iSh, jSh, kSh       *loopShape
	bound               minic.Expr // shared loop bound and row stride D
	dim                 int64      // bound folded against the launch params
	a, b, cOut          string     // the three DRAM matrices
	acc                 string
}

// rowCol decomposes a flattened subscript `r * D + c` into its row and
// column variables. Exactly two addends: a product with one Ident factor
// and one factor structurally equal to D, plus a bare Ident.
func rowCol(e minic.Expr, d minic.Expr) (row, col string, ok bool) {
	terms := flattenAdd(e)
	if len(terms) != 2 {
		return "", "", false
	}
	for _, perm := range [][2]minic.Expr{{terms[0], terms[1]}, {terms[1], terms[0]}} {
		m, okM := perm[0].(*minic.Binary)
		c, okC := perm[1].(*minic.Ident)
		if !okM || !okC || m.Op != minic.OpMul {
			continue
		}
		if r, okR := m.L.(*minic.Ident); okR && exprEq(m.R, d) {
			return r.Name, c.Name, true
		}
		if r, okR := m.R.(*minic.Ident); okR && exprEq(m.L, d) {
			return r.Name, c.Name, true
		}
	}
	return "", "", false
}

// dramIndex unpacks `M[e]` where M is a pointer parameter.
func dramIndex(fn *minic.FuncDecl, e minic.Expr) (name string, sub minic.Expr, ok bool) {
	ix, okI := e.(*minic.Index)
	if !okI || len(ix.Idx) != 1 {
		return "", nil, false
	}
	base, okB := ix.Base.(*minic.Ident)
	if !okB || !isPointerParam(fn, base.Name) {
		return "", nil, false
	}
	return base.Name, ix.Idx[0], true
}

func matchBlockBRAM(c *passCtx, st *minic.ForStmt) (*gemmNest, error) {
	name := minic.LoopName(st)
	fail := func(format string, args ...any) (*gemmNest, error) {
		return nil, notApplicable(PassBlockBRAM, name, format, args...)
	}
	iSh := shapeOf(st)
	if iSh == nil {
		return fail("outer loop header is not a plain counted loop")
	}
	if len(st.Body.Stmts) != 1 {
		return fail("outer loop body is not a single loop")
	}
	jLoop, ok := st.Body.Stmts[0].(*minic.ForStmt)
	if !ok {
		return fail("outer loop body is not a loop nest")
	}
	jSh := shapeOf(jLoop)
	if jSh == nil {
		return fail("middle loop header is not a plain counted loop")
	}
	if s, ok := jSh.stepConst(c.env); !ok || s != 1 {
		return fail("middle loop stride is not 1")
	}
	if v, ok := foldConst(jSh.init, c.env); !ok || v != 0 {
		return fail("middle loop does not start at 0")
	}
	if len(jLoop.Body.Stmts) != 3 {
		return fail("middle loop body is not accumulate-then-store")
	}
	accDecl, ok := jLoop.Body.Stmts[0].(*minic.DeclStmt)
	if !ok || accDecl.Typ == nil || !accDecl.Typ.IsScalar() || accDecl.Init == nil || !isZeroLit(accDecl.Init) {
		return fail("middle loop does not begin with a zeroed accumulator")
	}
	kLoop, ok := jLoop.Body.Stmts[1].(*minic.ForStmt)
	if !ok {
		return fail("no inner reduction loop")
	}
	kSh := shapeOf(kLoop)
	if kSh == nil {
		return fail("inner loop header is not a plain counted loop")
	}
	if s, ok := kSh.stepConst(c.env); !ok || s != 1 {
		return fail("inner loop stride is not 1")
	}
	if v, ok := foldConst(kSh.init, c.env); !ok || v != 0 {
		return fail("inner loop does not start at 0")
	}
	// The i loop is plain (from 0, stride 1) or thread-strided; either
	// way its stride is scaled by the block size in the rewrite.
	if s, ok := iSh.stepConst(c.env); ok {
		if s != 1 {
			return fail("outer loop stride is not 1")
		}
		if v, ok := foldConst(iSh.init, c.env); !ok || v != 0 {
			return fail("outer loop does not start at 0")
		}
	} else {
		ld := c.rep.Loop(name)
		if ld == nil || !ld.ThreadLoop {
			return fail("outer loop has a symbolic stride but is not thread-strided")
		}
	}
	// All three loops run to the same bound D, which folds.
	if !exprEq(iSh.bound, jSh.bound) || !exprEq(jSh.bound, kSh.bound) {
		return fail("loop bounds differ: not a square matmul nest")
	}
	dim, ok := foldConst(iSh.bound, c.env)
	if !ok {
		return fail("loop bound does not fold against the launch parameters")
	}
	// Inner body: acc += A[i*D+k] * B[k*D+j].
	if len(kLoop.Body.Stmts) != 1 {
		return fail("reduction body is not a single statement")
	}
	es, ok := kLoop.Body.Stmts[0].(*minic.ExprStmt)
	if !ok {
		return fail("reduction body is not an expression")
	}
	asn, ok := es.X.(*minic.AssignExpr)
	if !ok || asn.Op == nil || *asn.Op != minic.OpAdd {
		return fail("reduction body is not a += accumulation")
	}
	accUse, ok := asn.LHS.(*minic.Ident)
	if !ok || accUse.Name != accDecl.Name {
		return fail("reduction does not accumulate into the declared accumulator")
	}
	prod, ok := asn.RHS.(*minic.Binary)
	if !ok || prod.Op != minic.OpMul {
		return fail("accumulated value is not a product")
	}
	aName, ea, ok := dramIndex(c.fn, prod.L)
	if !ok {
		return fail("left factor is not a DRAM element")
	}
	bName, eb, ok := dramIndex(c.fn, prod.R)
	if !ok {
		return fail("right factor is not a DRAM element")
	}
	// Store: C[i*D+j] = acc.
	ws, ok := jLoop.Body.Stmts[2].(*minic.ExprStmt)
	if !ok {
		return fail("store statement is not an expression")
	}
	store, ok := ws.X.(*minic.AssignExpr)
	if !ok || store.Op != nil {
		return fail("store is not a plain assignment")
	}
	cName, ec, ok := dramIndex(c.fn, store.LHS)
	if !ok {
		return fail("store target is not a DRAM element")
	}
	rhs, ok := store.RHS.(*minic.Ident)
	if !ok || rhs.Name != accDecl.Name {
		return fail("store does not write the accumulator")
	}
	if aName == cName || bName == cName || aName == bName {
		return fail("matrices are not distinct (A=%s B=%s C=%s)", aName, bName, cName)
	}
	// Subscripts decompose as A[i*D+k], B[k*D+j], C[i*D+j].
	d := iSh.bound
	if r, col, ok := rowCol(ea, d); !ok || r != iSh.v || col != kSh.v {
		return fail("left factor subscript is not row-major i*D+k")
	}
	if r, col, ok := rowCol(eb, d); !ok || r != kSh.v || col != jSh.v {
		return fail("right factor subscript is not row-major k*D+j")
	}
	if r, col, ok := rowCol(ec, d); !ok || r != iSh.v || col != jSh.v {
		return fail("store subscript is not row-major i*D+j")
	}
	return &gemmNest{
		iLoop: st, jLoop: jLoop, kLoop: kLoop,
		iSh: iSh, jSh: jSh, kSh: kSh,
		bound: d, dim: dim,
		a: aName, b: bName, cOut: cName, acc: accDecl.Name,
	}, nil
}

// flatIdx builds the canonical row-major subscript `(r + dr) * D + c + dc`
// in the left-associated shape the hand-written kernels use.
func flatIdx(r, dr string, d minic.Expr, c, dc string) minic.Expr {
	return add(add(mul(add(id(r), id(dr)), cloneExpr(d, nil)), id(c)), id(dc))
}

// blockBRAM tiles the matched matmul nest with bs x bs blocks staged in
// BRAM: loads of A and B become (optionally vectorized) block copies into
// local arrays, the reduction runs entirely on-chip, and the C block is
// written back once per tile (paper ladder v2 → v4).
func blockBRAM(c *passCtx, st *minic.ForStmt, bs int64, vec bool) error {
	nest, err := matchBlockBRAM(c, st)
	if err != nil {
		return err
	}
	name := minic.LoopName(st)
	lanes := int64(c.lanes)
	if bs < 2 {
		return notApplicable(PassBlockBRAM, name, "block size %d < 2", bs)
	}
	if nest.dim%bs != 0 {
		return notApplicable(PassBlockBRAM, name, "dimension %d is not a multiple of block size %d", nest.dim, bs)
	}
	if vec && bs%lanes != 0 {
		return notApplicable(PassBlockBRAM, name, "block size %d is not a multiple of the %d-lane vector", bs, lanes)
	}
	// Blocking reorders iterations of all three loops; each needs the
	// Tile verdict proven.
	for _, l := range []*minic.ForStmt{nest.iLoop, nest.jLoop, nest.kLoop} {
		ld, err := c.loopDeps(PassBlockBRAM, l)
		if err != nil {
			return err
		}
		if err := gate(PassBlockBRAM, ld, ld.Legal.Tile, ld.Legal.TileWhy); err != nil {
			return err
		}
	}

	i, j, k := nest.iSh.v, nest.jSh.v, nest.kSh.v
	d := nest.bound
	cLocal := fresh(c.used, nest.cOut+"_local")
	aLocal := fresh(c.used, nest.a+"_local")
	bLocal := fresh(c.used, nest.b+"_local")
	x := fresh(c.used, "x")
	y := fresh(c.used, "y")
	m := fresh(c.used, "m")
	v := fresh(c.used, "v")

	// Outer loop: stride scaled by bs (my_id → my_id*bs, num_threads →
	// num_threads*bs; a plain loop becomes 0 .. D step bs).
	iStep := nest.iSh.step
	if iStep == nil {
		iStep = lit(1)
	}
	setHeader(st, i, mul(cloneExpr(nest.iSh.init, nil), lit(bs)),
		cloneExpr(nest.iSh.bound, nil),
		postAdd(i, mul(cloneExpr(iStep, nil), lit(bs))))

	// Middle loop: j steps by bs.
	setHeader(nest.jLoop, j, lit(0), cloneExpr(d, nil), postAdd(j, lit(bs)))

	// C block accumulator, zero-initialized.
	elem := minic.TypeFloat()
	cDecl := &minic.DeclStmt{Name: cLocal, Typ: minic.TypeArray(elem, int(bs), int(bs))}
	zero := stdFor(x, lit(0), lit(bs), 1,
		stdFor(y, lit(0), lit(bs), 1,
			assign(index(cLocal, id(x), id(y)), &minic.FloatLit{}),
		),
	)

	// Block-load phase: stage the bs x bs tiles of A and B.
	var aTyp, bTyp *minic.Type
	var stage *minic.ForStmt
	if vec {
		aTyp = minic.TypeArray(minic.TypeVector(int(lanes)), int(bs), int(bs/lanes))
		bTyp = minic.TypeArray(minic.TypeVector(int(lanes)), int(bs), int(bs/lanes))
		vl := bin(minic.OpDiv, id(v), lit(lanes))
		stage = stdFor(m, lit(0), lit(bs), 1,
			stdFor(v, lit(0), lit(bs), lanes,
				assign(index(aLocal, id(m), vl),
					&minic.VecLoad{Base: id(nest.a), Idx: flatIdx(i, m, d, k, v)}),
				assign(index(bLocal, id(m), cloneExpr(vl, nil)),
					&minic.VecLoad{Base: id(nest.b), Idx: flatIdx(k, m, d, j, v)}),
			),
		)
	} else {
		aTyp = minic.TypeArray(elem, int(bs), int(bs))
		bTyp = minic.TypeArray(elem, int(bs), int(bs))
		stage = stdFor(m, lit(0), lit(bs), 1,
			stdFor(v, lit(0), lit(bs), 1,
				assign(index(aLocal, id(m), id(v)), index(nest.a, flatIdx(i, m, d, k, v))),
				assign(index(bLocal, id(m), id(v)), index(nest.b, flatIdx(k, m, d, j, v))),
			),
		)
	}

	// Compute phase: on-chip dot products over the staged tiles.
	var aElem, bElem minic.Expr
	if vec {
		aElem = &minic.VecElem{
			Vec: index(aLocal, id(x), bin(minic.OpDiv, id(v), lit(lanes))),
			Idx: bin(minic.OpRem, id(v), lit(lanes)),
		}
		bElem = &minic.VecElem{
			Vec: index(bLocal, id(v), bin(minic.OpDiv, id(y), lit(lanes))),
			Idx: bin(minic.OpRem, id(y), lit(lanes)),
		}
	} else {
		aElem = index(aLocal, id(x), id(v))
		bElem = index(bLocal, id(v), id(y))
	}
	// The original accumulator declaration and uses are all replaced, so
	// its name is free to reuse for the per-element dot product.
	sum := nest.acc
	dot := stdFor(v, lit(0), lit(bs), 1, addAssign(id(sum), bin(minic.OpMul, aElem, bElem)))
	if vec {
		dot.Unroll = int(lanes)
	}
	compute := stdFor(x, lit(0), lit(bs), 1,
		stdFor(y, lit(0), lit(bs), 1,
			&minic.DeclStmt{Name: sum, Typ: minic.TypeFloat(), Init: lit(0)},
			dot,
			addAssign(index(cLocal, id(x), id(y)), id(sum)),
		),
	)

	// Reduction loop becomes the k-tile loop over the staged blocks.
	setHeader(nest.kLoop, k, lit(0), cloneExpr(d, nil), postAdd(k, lit(bs)))
	nest.kLoop.Body = block(
		&minic.DeclStmt{Name: aLocal, Typ: aTyp},
		&minic.DeclStmt{Name: bLocal, Typ: bTyp},
		stage,
		compute,
	)

	// Write the finished C block back to DRAM.
	writeback := stdFor(x, lit(0), lit(bs), 1,
		stdFor(y, lit(0), lit(bs), 1,
			assign(index(nest.cOut, flatIdx(i, x, d, j, y)), index(cLocal, id(x), id(y))),
		),
	)

	nest.jLoop.Body = block(cDecl, zero, nest.kLoop, writeback)
	return nil
}
