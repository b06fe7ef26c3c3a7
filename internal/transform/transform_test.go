package transform_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/minic"
	"paravis/internal/sim"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

var gemmOpts = transform.Options{
	Defines: workloads.GEMMDefines(workloads.GEMMNaive),
	Params:  map[string]int64{"DIM": 64},
}

// canonGEMM is the canonical printed form of a hand-written seed version:
// the engine's outputs are compared byte-for-byte against these.
func canonGEMM(t *testing.T, v workloads.GEMMVersion) string {
	t.Helper()
	p, err := minic.Parse(workloads.GEMMSource(v), minic.Options{Defines: workloads.GEMMDefines(v)})
	if err != nil {
		t.Fatalf("parse %v: %v", v, err)
	}
	re, err := minic.Parse(minic.Print(p), minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatalf("reparse %v: %v", v, err)
	}
	return minic.Print(re)
}

func findStep(t *testing.T, src, pass string) transform.Step {
	t.Helper()
	steps, err := transform.Targets(src, gemmOpts)
	if err != nil {
		t.Fatalf("targets: %v", err)
	}
	for _, s := range steps {
		if s.Pass == pass {
			return s
		}
	}
	t.Fatalf("no %s target in:\n%s", pass, src)
	return transform.Step{}
}

func mustApply(t *testing.T, src string, step transform.Step) string {
	t.Helper()
	out, err := transform.Apply(src, step, gemmOpts)
	if err != nil {
		t.Fatalf("apply %s on %s: %v", step.Pass, step.Loop, err)
	}
	return out
}

// TestLadderReproduction is the ground-truth test: each pass applied to
// the previous rung reproduces the paper's next hand-written kernel
// byte-for-byte (in canonical printed form).
func TestLadderReproduction(t *testing.T) {
	naive := canonGEMM(t, workloads.GEMMNaive)

	v2 := mustApply(t, naive, findStep(t, naive, transform.PassRedistribute))
	if want := canonGEMM(t, workloads.GEMMNoCritical); v2 != want {
		t.Errorf("redistribute(naive) != no-critical seed:\n--- got ---\n%s\n--- want ---\n%s", v2, want)
	}

	v3 := mustApply(t, v2, findStep(t, v2, transform.PassVectorize))
	if want := canonGEMM(t, workloads.GEMMPartialVec); v3 != want {
		t.Errorf("vectorize(v2) != partial-vec seed:\n--- got ---\n%s\n--- want ---\n%s", v3, want)
	}

	bram := findStep(t, v2, transform.PassBlockBRAM)
	bram.Params = map[string]int64{"bs": 8, "vec": 1}
	v4 := mustApply(t, v2, bram)
	if want := canonGEMM(t, workloads.GEMMBlocked); v4 != want {
		t.Errorf("block-bram(v2) != blocked seed:\n--- got ---\n%s\n--- want ---\n%s", v4, want)
	}

	v5 := mustApply(t, v4, findStep(t, v4, transform.PassDoubleBuffer))
	if want := canonGEMM(t, workloads.GEMMDoubleBuffered); v5 != want {
		t.Errorf("double-buffer(v4) != double-buffered seed:\n--- got ---\n%s\n--- want ---\n%s", v5, want)
	}
}

// ladderOutputs applies the naive → v2 → v4 → v5 sequence and returns
// every emitted source, plus the vectorized v3 side branch.
func ladderOutputs(t *testing.T) map[string]string {
	t.Helper()
	naive := canonGEMM(t, workloads.GEMMNaive)
	v2 := mustApply(t, naive, findStep(t, naive, transform.PassRedistribute))
	v3 := mustApply(t, v2, findStep(t, v2, transform.PassVectorize))
	bram := findStep(t, v2, transform.PassBlockBRAM)
	bram.Params = map[string]int64{"bs": 8, "vec": 1}
	v4 := mustApply(t, v2, bram)
	v5 := mustApply(t, v4, findStep(t, v4, transform.PassDoubleBuffer))
	return map[string]string{"v2": v2, "v3": v3, "v4": v4, "v5": v5}
}

// TestRoundTrip: every pass output re-parses, re-prints byte-identically
// (printer fixpoint) and vets without errors.
func TestRoundTrip(t *testing.T) {
	for name, src := range ladderOutputs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := minic.Parse(src, minic.Options{VectorLanes: 4})
			if err != nil {
				t.Fatalf("output does not re-parse: %v", err)
			}
			if again := minic.Print(p); again != src {
				t.Errorf("output is not a printer fixpoint:\n--- emitted ---\n%s\n--- reprinted ---\n%s", src, again)
			}
			for _, d := range core.Vet(name+".mc", src, core.BuildOptions{VectorLanes: 4}) {
				if d.Severity == staticcheck.SevError {
					t.Errorf("vet error: %s", d)
				}
			}
		})
	}
}

// TestSimEquivalence: each rung computes the same matrix product as the
// reference, at a small DIM so the whole ladder simulates quickly.
func TestSimEquivalence(t *testing.T) {
	const dim = 16
	a, b := workloads.GEMMInputs(dim)
	want := workloads.GEMMRef(a, b, dim)
	srcs := ladderOutputs(t)
	var cycles = map[string]int64{}
	for _, name := range []string{"v2", "v3", "v4", "v5"} {
		p, err := core.Build(context.Background(), srcs[name], core.BuildOptions{VectorLanes: 4})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		cbuf := sim.NewZeroBuffer(dim * dim)
		out, err := p.Run(context.Background(), sim.Args{
			Ints: map[string]int64{"DIM": dim},
			Buffers: map[string]*sim.Buffer{
				"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": cbuf,
			},
		}, sim.Config{})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		got := cbuf.Floats()
		for i := range want {
			d := float64(got[i] - want[i])
			if d < -0.05 || d > 0.05 {
				t.Fatalf("%s: C[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
		cycles[name] = out.Result.Cycles
	}
	if cycles["v5"] >= cycles["v2"] {
		t.Errorf("double-buffered (%d cycles) not faster than no-critical (%d)", cycles["v5"], cycles["v2"])
	}
}

// TestUnrollIdentity: re-applying unroll with the factor the loop
// already has is a byte-identical no-op.
func TestUnrollIdentity(t *testing.T) {
	v3 := ladderOutputs(t)["v3"]
	// Find the already-unrolled lane loop in the parsed tree and
	// re-apply unroll with the factor it already carries.
	prog, err := minic.Parse(v3, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var unrolled string
	for _, f := range prog.Funcs {
		var walk func(s minic.Stmt)
		walk = func(s minic.Stmt) {
			switch x := s.(type) {
			case *minic.BlockStmt:
				for _, in := range x.Stmts {
					walk(in)
				}
			case *minic.ForStmt:
				if x.Unroll == 4 {
					unrolled = loopNameOf(x)
				}
				walk(x.Body)
			case *minic.IfStmt:
				walk(x.Then)
				if x.Else != nil {
					walk(x.Else)
				}
			case *minic.CriticalStmt:
				walk(x.Body)
			case *minic.TargetStmt:
				walk(x.Body)
			}
		}
		if f.Body != nil {
			walk(f.Body)
		}
	}
	if unrolled == "" {
		t.Fatalf("no unrolled loop found in v3")
	}
	out, err := transform.Apply(v3, transform.Step{
		Pass: transform.PassUnroll, Loop: unrolled, Params: map[string]int64{"factor": 4},
	}, gemmOpts)
	if err != nil {
		t.Fatalf("identity unroll: %v", err)
	}
	if out != v3 {
		t.Errorf("identity unroll changed the source:\n--- before ---\n%s\n--- after ---\n%s", v3, out)
	}
}

func loopNameOf(st *minic.ForStmt) string {
	return "for@" + itoa(st.Pos.Line) + ":" + itoa(st.Pos.Col)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestTilePass: strip-mining the j loop of the no-critical kernel emits
// a nest that re-parses, vets clean and still computes the right result.
func TestTilePass(t *testing.T) {
	v2 := ladderOutputs(t)["v2"]
	steps, err := transform.Targets(v2, gemmOpts)
	if err != nil {
		t.Fatalf("targets: %v", err)
	}
	var tile *transform.Step
	for i := range steps {
		if steps[i].Pass == transform.PassTile {
			tile = &steps[i]
			break
		}
	}
	if tile == nil {
		t.Fatalf("no tile target on v2")
	}
	tile.Params = map[string]int64{"size": 8}
	out := mustApply(t, v2, *tile)
	p, err := minic.Parse(out, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatalf("tile output does not re-parse: %v", err)
	}
	if again := minic.Print(p); again != out {
		t.Errorf("tile output not canonical")
	}
	const dim = 16
	a, b := workloads.GEMMInputs(dim)
	want := workloads.GEMMRef(a, b, dim)
	prog, err := core.Build(context.Background(), out, core.BuildOptions{VectorLanes: 4})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cbuf := sim.NewZeroBuffer(dim * dim)
	if _, err := prog.Run(context.Background(), sim.Args{
		Ints:    map[string]int64{"DIM": dim},
		Buffers: map[string]*sim.Buffer{"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": cbuf},
	}, sim.Config{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := cbuf.Floats()
	for i := range want {
		d := float64(got[i] - want[i])
		if d < -0.05 || d > 0.05 {
			t.Fatalf("tiled C[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// lyingReport downgrades every legality verdict in a genuine report, so
// the structural matchers still fit but nothing is proven.
func lyingReport(t *testing.T, src string, verdict depend.Tri) *depend.Report {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep := transform.LegalityReport(fn, map[string]int64{"DIM": 64})
	for _, l := range rep.Loops {
		l.Legal.Unroll = verdict
		l.Legal.UnrollWhy = "doctored"
		l.Legal.Tile = verdict
		l.Legal.TileWhy = "doctored"
		l.Legal.DoubleBuffer = verdict
		l.Legal.DoubleBufferWhy = "doctored"
	}
	return rep
}

// TestLyingLegality is the gate-integrity test: with every verdict
// doctored to unknown or illegal, no pass fires — each returns
// ErrNotProven even though the structural matcher accepts the loop.
func TestLyingLegality(t *testing.T) {
	naive := canonGEMM(t, workloads.GEMMNaive)
	outs := ladderOutputs(t)
	cases := []struct {
		name string
		src  string
		step transform.Step
	}{
		{"redistribute", naive, findStep(t, naive, transform.PassRedistribute)},
		{"vectorize", outs["v2"], findStep(t, outs["v2"], transform.PassVectorize)},
		{"block-bram", outs["v2"], findStep(t, outs["v2"], transform.PassBlockBRAM)},
		{"double-buffer", outs["v4"], findStep(t, outs["v4"], transform.PassDoubleBuffer)},
	}
	// Unroll and tile on the v2 k/j loops.
	unrollStep := findStep(t, outs["v2"], transform.PassUnroll)
	unrollStep.Params = map[string]int64{"factor": 4}
	cases = append(cases, struct {
		name string
		src  string
		step transform.Step
	}{"unroll", outs["v2"], unrollStep})
	tileStep := findStep(t, outs["v2"], transform.PassTile)
	tileStep.Params = map[string]int64{"size": 8}
	cases = append(cases, struct {
		name string
		src  string
		step transform.Step
	}{"tile", outs["v2"], tileStep})

	for _, verdict := range []depend.Tri{depend.Unknown, depend.Illegal} {
		for _, tc := range cases {
			t.Run(tc.name+"/"+verdict.String(), func(t *testing.T) {
				opts := gemmOpts
				opts.Report = lyingReport(t, tc.src, verdict)
				_, err := transform.Apply(tc.src, tc.step, opts)
				if err == nil {
					t.Fatalf("%s fired despite %s legality", tc.step.Pass, verdict)
				}
				if !errors.Is(err, transform.ErrNotProven) {
					t.Fatalf("%s: want ErrNotProven, got %v", tc.step.Pass, err)
				}
			})
		}
	}
}

// TestDoubleBufferFlowDep: a proven loop-carried flow dependence through
// a buffer refuses the rewrite even when the verdicts are proven.
func TestDoubleBufferFlowDep(t *testing.T) {
	v4 := ladderOutputs(t)["v4"]
	step := findStep(t, v4, transform.PassDoubleBuffer)
	prog, err := minic.Parse(v4, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep := transform.LegalityReport(fn, map[string]int64{"DIM": 64})
	ld := rep.Loop(step.Loop)
	if ld == nil {
		t.Fatalf("no dependence record for %s", step.Loop)
	}
	ld.Deps = append(ld.Deps, depend.Dep{
		Array: "A_local", Kind: "flow", Carried: true, Proven: true,
	})
	opts := gemmOpts
	opts.Report = rep
	if _, err := transform.Apply(v4, step, opts); !errors.Is(err, transform.ErrNotProven) {
		t.Fatalf("want ErrNotProven on carried flow through buffer, got %v", err)
	}
}

// gridSteps crosses a structural target with the search's default
// parameter grid (autotune: unroll 2/4, tile and block-bram sizes
// 4/8/16, block-bram with and without vector staging).
func gridSteps(s transform.Step) []transform.Step {
	with := func(key string, vals ...int64) []transform.Step {
		var out []transform.Step
		for _, v := range vals {
			out = append(out, transform.Step{Pass: s.Pass, Loop: s.Loop, Params: map[string]int64{key: v}})
		}
		return out
	}
	switch s.Pass {
	case transform.PassUnroll:
		return with("factor", 2, 4)
	case transform.PassTile:
		return with("size", 4, 8, 16)
	case transform.PassBlockBRAM:
		var out []transform.Step
		for _, bs := range []int64{4, 8, 16} {
			for _, vec := range []int64{1, 0} {
				out = append(out, transform.Step{Pass: s.Pass, Loop: s.Loop, Params: map[string]int64{"bs": bs, "vec": vec}})
			}
		}
		return out
	default:
		return []transform.Step{s}
	}
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, transform.ErrNotProven):
		return "not-proven"
	case errors.Is(err, transform.ErrNotApplicable):
		return "not-applicable"
	default:
		return "other"
	}
}

// TestPreparedBaseMatchesApply: one prepared base reused for every
// candidate step emits exactly what a fresh Apply per step emits (same
// bytes, same error class, same message), in enumeration order and in
// reverse, so sharing the legality report across passes leaks no state
// between them. Bases are the six seed workloads' canonical sources and
// every round base of the search's GEMM ladder.
func TestPreparedBaseMatchesApply(t *testing.T) {
	type base struct {
		name string
		src  string
		opts transform.Options
	}
	var bases []base
	for _, u := range workloads.Units() {
		lanes := minic.Lanes(0, u.Defines)
		p, err := minic.Parse(u.Source, minic.Options{Defines: u.Defines})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		re, err := minic.Parse(minic.Print(p), minic.Options{VectorLanes: lanes})
		if err != nil {
			t.Fatalf("%s: reparse: %v", u.Name, err)
		}
		bases = append(bases, base{u.Name, minic.Print(re), transform.Options{VectorLanes: lanes, Params: u.Params}})
	}
	outs := ladderOutputs(t)
	ladderOpts := transform.Options{VectorLanes: 4, Params: gemmOpts.Params}
	bases = append(bases,
		base{"ladder-r1-naive", canonGEMM(t, workloads.GEMMNaive), ladderOpts},
		base{"ladder-r2-redistributed", outs["v2"], ladderOpts},
		base{"ladder-r3-blocked", outs["v4"], ladderOpts},
		base{"ladder-r4-double-buffered", outs["v5"], ladderOpts})

	seen := map[string]int{}
	for _, bc := range bases {
		b, err := transform.Prepare(bc.src, bc.opts)
		if err != nil {
			t.Fatalf("%s: prepare: %v", bc.name, err)
		}
		targets, err := b.Targets()
		if err != nil {
			t.Fatalf("%s: targets: %v", bc.name, err)
		}
		free, err := transform.Targets(bc.src, bc.opts)
		if err != nil {
			t.Fatalf("%s: free targets: %v", bc.name, err)
		}
		if !reflect.DeepEqual(targets, free) {
			t.Errorf("%s: prepared targets %v != free targets %v", bc.name, targets, free)
		}
		var steps []transform.Step
		for _, tg := range targets {
			steps = append(steps, gridSteps(tg)...)
		}
		type outcome struct {
			src string
			err error
		}
		want := make([]outcome, len(steps))
		for i, s := range steps {
			want[i].src, want[i].err = transform.Apply(bc.src, s, bc.opts)
			seen[errClass(want[i].err)]++
		}
		check := func(i int) {
			got, err := b.Apply(steps[i])
			w := want[i]
			if errClass(err) != errClass(w.err) || fmt.Sprint(err) != fmt.Sprint(w.err) {
				t.Errorf("%s: %s(%s)%v: prepared error %v, free error %v", bc.name, steps[i].Pass, steps[i].Loop, steps[i].Params, err, w.err)
			} else if got != w.src {
				t.Errorf("%s: %s(%s)%v: prepared output differs from free Apply:\n--- prepared ---\n%s\n--- free ---\n%s",
					bc.name, steps[i].Pass, steps[i].Loop, steps[i].Params, got, w.src)
			}
		}
		for i := range steps {
			check(i)
		}
		for i := len(steps) - 1; i >= 0; i-- {
			check(i)
		}
	}
	t.Logf("step outcomes over %d bases: %v", len(bases), seen)
	for _, class := range []string{"ok", "not-proven", "not-applicable"} {
		if seen[class] == 0 {
			t.Errorf("no step ended %s; the comparison does not cover that path (outcomes %v)", class, seen)
		}
	}
}
