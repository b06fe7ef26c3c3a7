// Package transform is the source-to-source transformation engine over
// the MiniC AST: the mechanical half of the paper's §V-C optimization
// ladder. Each pass rewrites a parsed kernel — redistributing a reduction
// to kill a critical section, vectorizing narrow loads, unrolling,
// strip-mining, staging DRAM tiles in BRAM, or double-buffering those
// tiles — and emits canonical source (minic.Print) that re-parses, vets
// clean and simulates like any hand-written kernel.
//
// Every pass is legality-gated: it refuses to fire unless the
// internal/depend verdict for the transformation it performs is *proven*
// on the loops it touches. The verdicts come from the same
// range-refined dependence analysis the advisor uses (absint ranges +
// depend.AnalyzeRanges); tests can inject a doctored depend.Report
// through Options.Report to prove the gate holds.
//
// Apply is the only mutation entry point: parse → gate → rewrite →
// print → re-parse → print. The double print canonicalizes the output
// (sema inserts coercion casts on the first re-parse), so applying a
// pass is idempotent byte-wise: transforming already-transformed source
// with identity parameters returns the input unchanged. A search that
// applies many steps to one source calls Prepare once and Base.Apply per
// step, so the legality report is derived once per source, not per step.
package transform

import (
	"errors"
	"fmt"

	"paravis/internal/absint"
	"paravis/internal/depend"
	"paravis/internal/minic"
)

// Pass names, used in Step.Pass and by the advisor's structured remedies.
const (
	// PassRedistribute rewrites a critical-section reduction so threads
	// own disjoint outputs (paper ladder v1 → v2).
	PassRedistribute = "redistribute"
	// PassVectorize widens a unit-stride reduction load to VECTOR
	// accesses with an unrolled lane loop (v2 → v3).
	PassVectorize = "vectorize"
	// PassUnroll sets or raises a loop's #pragma unroll factor.
	PassUnroll = "unroll"
	// PassTile strip-mines a counted loop into tile/intra-tile loops.
	PassTile = "tile"
	// PassBlockBRAM tiles a matmul-shaped nest and stages the tiles in
	// BRAM so compute reads on-chip memory (v2 → v4).
	PassBlockBRAM = "block-bram"
	// PassDoubleBuffer splits a tile loop's load and compute phases
	// across two BRAM buffer sets so prefetch overlaps compute (v4 → v5).
	PassDoubleBuffer = "double-buffer"
)

// Step is one transformation application: a pass, the loop it targets
// (by the canonical "for@line:col" name in the *current* source), and
// the pass's integer parameters.
type Step struct {
	Pass   string           `json:"pass"`
	Loop   string           `json:"loop,omitempty"`
	Params map[string]int64 `json:"params,omitempty"`
}

func (s Step) param(name string, def int64) int64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Options configures parsing and legality analysis for a transformation.
type Options struct {
	// Defines and VectorLanes are forwarded to minic.Parse.
	Defines     map[string]string
	VectorLanes int
	// Params are the launch parameters (e.g. DIM=64); the passes fold
	// divisibility preconditions against them.
	Params map[string]int64
	// Report overrides the dependence/legality report. When nil the
	// engine derives it from the parsed source exactly as the advisor
	// does. Tests inject lying reports here to prove gating.
	Report *depend.Report
}

// ErrNotProven is wrapped by pass failures where the depend verdict for
// the transformation was not Proven on a touched loop.
var ErrNotProven = errors.New("legality not proven")

// ErrNotApplicable is wrapped by pass failures where the loop shape or
// the requested parameters do not fit the pass.
var ErrNotApplicable = errors.New("pass not applicable")

// NotProvenError reports a refused transformation with the loop and the
// dependence engine's reason.
type NotProvenError struct {
	Pass    string
	Loop    string
	Verdict depend.Tri
	Why     string
}

func (e *NotProvenError) Error() string {
	msg := fmt.Sprintf("transform: %s on %s refused: legality %s", e.Pass, e.Loop, e.Verdict)
	if e.Why != "" {
		msg += " (" + e.Why + ")"
	}
	return msg
}

func (e *NotProvenError) Unwrap() error { return ErrNotProven }

func notApplicable(pass, loop, format string, args ...any) error {
	return fmt.Errorf("transform: %s on %s: %s: %w", pass, loop, fmt.Sprintf(format, args...), ErrNotApplicable)
}

// gate returns nil only when the given legality verdict is Proven.
func gate(pass string, ld *depend.LoopDeps, verdict depend.Tri, why string) error {
	if verdict == depend.Proven {
		return nil
	}
	return &NotProvenError{Pass: pass, Loop: ld.Name, Verdict: verdict, Why: why}
}

// passCtx carries everything a pass needs: the parsed function, the
// legality report, the lane count and the fold environment.
type passCtx struct {
	fn    *minic.FuncDecl
	rep   *depend.Report
	lanes int
	env   map[string]int64
	used  map[string]bool
}

func (c *passCtx) loopDeps(pass string, st *minic.ForStmt) (*depend.LoopDeps, error) {
	ld := c.rep.Loop(loopName(st))
	if ld == nil {
		return nil, notApplicable(pass, loopName(st), "no dependence record for loop")
	}
	return ld, nil
}

// Base is a source prepared for repeated transformation: parsed and
// analyzed once, so every candidate of a search round gates against the
// same legality report instead of recomputing it. The report is plain
// name-keyed data the passes only read; each Apply re-parses the source
// because the passes mutate the AST. A Base is never modified after
// Prepare.
type Base struct {
	src   string
	parse minic.Options
	rep   *depend.Report
	lanes int
	env   map[string]int64
}

// Prepare parses src and derives its legality report (or takes
// opts.Report).
func Prepare(src string, opts Options) (*Base, error) {
	b := &Base{
		src:   src,
		parse: minic.Options{Defines: opts.Defines, VectorLanes: opts.VectorLanes},
		rep:   opts.Report,
		lanes: minic.Lanes(opts.VectorLanes, opts.Defines),
		env:   opts.Params,
	}
	_, c, err := b.analyze()
	if err != nil {
		return nil, err
	}
	if b.rep == nil {
		b.rep = LegalityReport(c.fn, opts.Params)
	}
	return b, nil
}

// analyze parses a fresh copy of the base source for one pass run.
func (b *Base) analyze() (*minic.Program, *passCtx, error) {
	prog, err := minic.Parse(b.src, b.parse)
	if err != nil {
		return nil, nil, fmt.Errorf("transform: %w", err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("transform: %w", err)
	}
	return prog, &passCtx{fn: fn, rep: b.rep, lanes: b.lanes, env: b.env, used: usedNames(fn)}, nil
}

// Apply parses src, applies one transformation step and returns the
// canonical printed source. The emitted text is guaranteed to re-parse;
// building, vetting and simulating it is the caller's business.
func Apply(src string, step Step, opts Options) (string, error) {
	b, err := Prepare(src, opts)
	if err != nil {
		return "", err
	}
	return b.Apply(step)
}

// Apply applies one transformation step to the base source; see the
// package-level Apply.
func (b *Base) Apply(step Step) (string, error) {
	prog, ctx, err := b.analyze()
	if err != nil {
		return "", err
	}
	st := findLoop(ctx.fn, step.Loop)
	if st == nil {
		return "", notApplicable(step.Pass, step.Loop, "no such loop")
	}
	switch step.Pass {
	case PassRedistribute:
		err = redistribute(ctx, st)
	case PassVectorize:
		err = vectorize(ctx, st)
	case PassUnroll:
		err = unroll(ctx, st, step.param("factor", int64(ctx.lanes)))
	case PassTile:
		err = tile(ctx, st, step.param("size", 8))
	case PassBlockBRAM:
		err = blockBRAM(ctx, st, step.param("bs", 8), step.param("vec", 1) != 0)
	case PassDoubleBuffer:
		err = doubleBuffer(ctx, st)
	default:
		return "", fmt.Errorf("transform: unknown pass %q: %w", step.Pass, ErrNotApplicable)
	}
	if err != nil {
		return "", err
	}
	return canonical(prog, ctx.lanes)
}

// canonical prints the mutated tree, re-parses it (running sema, which
// inserts coercion casts) and prints again, so Apply's output is always
// a printer fixpoint.
func canonical(prog *minic.Program, lanes int) (string, error) {
	out := minic.Print(prog)
	re, err := minic.Parse(out, minic.Options{VectorLanes: lanes})
	if err != nil {
		return "", fmt.Errorf("transform: emitted source does not re-parse: %w\n%s", err, out)
	}
	return minic.Print(re), nil
}

// LegalityReport derives the range-refined dependence report the passes
// gate on: abstract-interpretation index ranges feeding the dependence
// solver, exactly as the advisor and the vet report's depend section.
func LegalityReport(fn *minic.FuncDecl, params map[string]int64) *depend.Report {
	var ranges depend.RangeFn
	if ai := absint.Analyze(fn, absint.Options{Env: params}); ai.OK {
		ranges = ai.IndexRange
	}
	return depend.AnalyzeRanges(fn, params, ranges)
}

// Targets enumerates the transformation steps whose structural matchers
// fit the current source, in deterministic order (loops in source order,
// passes in ladder order). Parameters are not filled in: the search
// driver crosses each target with its parameter grid and lets Apply
// check legality and divisibility.
func Targets(src string, opts Options) ([]Step, error) {
	b, err := Prepare(src, opts)
	if err != nil {
		return nil, err
	}
	return b.Targets()
}

// Targets enumerates the base source's structural targets; see the
// package-level Targets.
func (b *Base) Targets() ([]Step, error) {
	_, ctx, err := b.analyze()
	if err != nil {
		return nil, err
	}
	var out []Step
	for _, st := range forLoops(ctx.fn) {
		name := loopName(st)
		if matchRedistribute(ctx, st) == nil {
			out = append(out, Step{Pass: PassRedistribute, Loop: name})
		}
		if _, err := matchBlockBRAM(ctx, st); err == nil {
			out = append(out, Step{Pass: PassBlockBRAM, Loop: name})
		}
		if _, err := matchDoubleBuffer(ctx, st); err == nil {
			out = append(out, Step{Pass: PassDoubleBuffer, Loop: name})
		}
		if _, err := matchVectorize(ctx, st); err == nil {
			out = append(out, Step{Pass: PassVectorize, Loop: name})
		}
		if st.Unroll == 0 && st.Cond != nil && len(st.Post) > 0 && len(innerFors(st)) == 0 {
			out = append(out, Step{Pass: PassUnroll, Loop: name})
		}
		if matchTile(ctx, st) == nil {
			out = append(out, Step{Pass: PassTile, Loop: name})
		}
	}
	return out, nil
}
