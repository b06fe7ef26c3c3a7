package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"paravis/internal/absint"
	"paravis/internal/autotune"
	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/hw"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/perfbound"
	"paravis/internal/schedule"
	"paravis/internal/sim"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

// The search workload: autotune.Optimize on the naive GEMM. Its inputs
// are fixed so the winner is checkable: the search must rediscover the
// hand-written double-buffered kernel's cycle count exactly.
const (
	searchDim    = 32
	searchBudget = 32
)

type search struct {
	seed    int64
	defines map[string]string
	params  map[string]int64
	simCfg  sim.Config
	// handCycles is the hand double-buffered GEMM simulated at searchDim
	// under the search's machine model, measured in set-up.
	handCycles int64

	first *autotune.Result // the first pass's report; later ones must match
	last  *autotune.Result
	hits  core.CacheStats // compile cache counters of the traced passes
}

func newSearch(seed int64) *search {
	cfg := sim.DefaultConfig()
	cfg.Profile.Enabled = false
	return &search{
		seed:    seed,
		defines: workloads.GEMMDefines(workloads.GEMMNaive),
		params:  map[string]int64{"DIM": searchDim},
		simCfg:  cfg,
	}
}

func (s *search) setup(ctx context.Context) error {
	v := workloads.GEMMDoubleBuffered
	p, err := core.Build(ctx, workloads.GEMMSource(v), core.BuildOptions{Defines: workloads.GEMMDefines(v)})
	if err != nil {
		return err
	}
	args, err := p.SizedArgs(s.params, nil)
	if err != nil {
		return err
	}
	out, err := p.Run(ctx, args, s.simCfg)
	if err != nil {
		return err
	}
	s.handCycles = out.Result.Cycles
	return nil
}

func (s *search) options(cache *core.Cache) autotune.Options {
	return autotune.Options{
		Defines: s.defines,
		Params:  s.params,
		Cache:   cache,
		Workers: workers,
		Budget:  autotune.Budget{Candidates: searchBudget},
	}
}

func (s *search) pass(ctx context.Context, r *run, tr *tracer) (time.Duration, error) {
	// A fresh compile cache per pass keeps every pass the same work.
	cache := core.NewCache()
	o := tr.op("search")
	sp := o.child("autotune.optimize")
	t0 := time.Now()
	res, err := autotune.Optimize(ctx, "gemm-naive", workloads.GEMMSource(workloads.GEMMNaive), s.options(cache))
	wall := time.Since(t0)
	sp.end()
	o.end()
	if err == nil {
		err = s.check(res)
	}
	r.op(err)
	if res == nil {
		return wall, nil
	}
	s.last = res
	if tr != nil {
		st := cache.Stats()
		s.hits.Hits += st.Hits
		s.hits.Misses += st.Misses
		s.record(tr, res)
		if err := s.replay(ctx, tr, res); err != nil {
			r.op(fmt.Errorf("replay: %w", err))
		}
	}
	return wall, nil
}

// check holds the search to the hand ladder and to its budget, and
// requires every pass to repeat the first pass's report.
func (s *search) check(res *autotune.Result) error {
	if res.WinnerCycles != s.handCycles {
		return fmt.Errorf("winner %q at %d cycles, want the hand double-buffered %d", res.Winner, res.WinnerCycles, s.handCycles)
	}
	if res.SimsRun > searchBudget {
		return fmt.Errorf("%d sims run, budget %d", res.SimsRun, searchBudget)
	}
	if s.first == nil {
		s.first = res
		return nil
	}
	a, b := s.first, res
	if len(a.Candidates) != len(b.Candidates) || a.SimsRun != b.SimsRun || a.Winner != b.Winner ||
		counts(verdicts(a)) != counts(verdicts(b)) || simCycles(a) != simCycles(b) {
		return fmt.Errorf("report differs from the first pass: %d candidates, %d sims, winner %q, %s",
			len(b.Candidates), b.SimsRun, b.Winner, counts(verdicts(b)))
	}
	return nil
}

func verdicts(res *autotune.Result) map[string]int {
	h := map[string]int{}
	for _, c := range res.Candidates {
		h[c.Verdict]++
	}
	return h
}

// simCycles sums the simulated cycles of every confirmation sim.
func simCycles(res *autotune.Result) int64 {
	var n int64
	for _, c := range res.Candidates {
		if c.Simulated {
			n += c.Cycles
		}
	}
	return n
}

// record adds the search report's counts to the trace.
func (s *search) record(tr *tracer, res *autotune.Result) {
	h := verdicts(res)
	for v, n := range h {
		tr.add("autotune.verdict_"+v, float64(n))
	}
	tr.add("autotune.candidates", float64(len(res.Candidates)))
	tr.add("autotune.sims_run", float64(res.SimsRun))
	tr.add("autotune.sim_cycles", float64(simCycles(res)))
	tr.add("autotune.winner_cycles", float64(res.WinnerCycles))
	tr.add("autotune.useful_sims", float64(h[autotune.VerdictImproved]+h[autotune.VerdictWinner]))
	tr.add("autotune.pruned", float64(h[autotune.VerdictPruned]))
}

// replay attributes the search's cost to layers. Optimize records no
// spans of its own, so after each traced search the benchmark calls each
// layer once per candidate the report lists, on that candidate's source:
// transform.Apply from the round's base, the build stages, vet, absint,
// depend and perfbound on what built cleanly, and the simulator on what
// the search simulated (whose cycles must match the report). The times
// give each layer's cost over the search's candidate set; they are not a
// partition of the Optimize span, which the replay does not count.
func (s *search) replay(ctx context.Context, tr *tracer, res *autotune.Result) error {
	o := tr.op("search.replay")
	defer o.end()
	lanes, err := strconv.Atoi(s.defines["VECTOR_LEN"])
	if err != nil {
		return fmt.Errorf("VECTOR_LEN: %w", err)
	}
	prog0, err := minic.Parse(workloads.GEMMSource(workloads.GEMMNaive), minic.Options{Defines: s.defines})
	if err != nil {
		return err
	}
	re, err := minic.Parse(minic.Print(prog0), minic.Options{VectorLanes: lanes})
	if err != nil {
		return err
	}
	topts := transform.Options{VectorLanes: lanes, Params: s.params}
	// bases[r] is the source round r+1 starts from: the canonical
	// baseline with the first r winner steps applied.
	bases := []string{minic.Print(re)}
	for _, step := range res.WinnerSteps {
		next, err := transform.Apply(bases[len(bases)-1], step, topts)
		if err != nil {
			return fmt.Errorf("winner step %s: %w", step.Pass, err)
		}
		bases = append(bases, next)
	}
	for _, base := range bases[:res.Rounds] {
		sp := o.child("transform.targets")
		targets, err := transform.Targets(base, topts)
		sp.end()
		if err != nil {
			return err
		}
		tr.add("transform.targets", float64(len(targets)))
	}
	rng := rand.New(rand.NewSource(s.seed))
	for _, c := range res.Candidates {
		if err := s.replayCandidate(ctx, o, rng, bases, c, lanes, topts); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}

func (s *search) replayCandidate(ctx context.Context, o ref, rng *rand.Rand, bases []string, c autotune.Candidate, lanes int, topts transform.Options) error {
	round := len(c.Steps)
	if round < 1 || round > len(bases) {
		return fmt.Errorf("candidate with %d steps in a %d-round search", round, len(bases))
	}
	sp := o.child("transform.apply")
	src, err := transform.Apply(bases[round-1], c.Steps[round-1], topts)
	sp.end()
	switch c.Verdict {
	case autotune.VerdictNotProven, autotune.VerdictNotApplicable:
		if err == nil {
			return errors.New("applies in the replay but not in the search")
		}
		return nil
	}
	if err != nil {
		return err
	}
	p, err := buildStages(o, src, minic.Options{VectorLanes: lanes})
	if c.Verdict == autotune.VerdictCompileError {
		if err == nil {
			return errors.New("builds in the replay but not in the search")
		}
		return nil
	}
	if err != nil {
		return err
	}
	sp = o.child("staticcheck.vet")
	ds := staticcheck.CheckSource("gemm-naive", src, minic.Options{VectorLanes: lanes})
	sp.end()
	o.tr.add("staticcheck.diagnostics", float64(len(ds)))
	if c.Verdict == autotune.VerdictVetDirty {
		return nil
	}

	sp = o.child("absint.analyze")
	ai := absint.Analyze(p.fn, absint.Options{Env: s.params})
	sp.end()
	sp = o.child("depend.analyze")
	var ranges depend.RangeFn
	if ai.OK {
		ranges = ai.IndexRange
	}
	depend.AnalyzeRanges(p.fn, s.params, ranges)
	sp.end()
	cfg := boundsConfig(s.simCfg, ai)
	sp = o.child("perfbound.analyze")
	b := perfbound.Analyze(p.k, p.s, s.params, cfg).Cycles
	sp.end()
	if b.Lower != c.PredLower || b.Upper != c.PredUpper {
		return fmt.Errorf("replayed bracket [%d, %d], search had [%d, %d]", b.Lower, b.Upper, c.PredLower, c.PredUpper)
	}
	if b.UpperKnown && b.Lower > 0 {
		o.tr.add("perfbound.brackets", 1)
		o.tr.add("perfbound.bracket_ratio_sum", float64(b.Upper)/float64(b.Lower))
	}
	if !c.Simulated {
		return nil
	}

	args := sim.Args{Ints: map[string]int64{"DIM": searchDim}, Buffers: map[string]*sim.Buffer{}}
	n := searchDim * searchDim
	for _, name := range []string{"A", "B"} {
		f := make([]float32, n)
		for i := range f {
			f[i] = rng.Float32()
		}
		args.Buffers[name] = sim.NewFloatBuffer(f)
	}
	args.Buffers["C"] = sim.NewZeroBuffer(n)
	sp = o.child("sim.run")
	res, err := sim.Run(ctx, p.ck, args, s.simCfg)
	sp.end()
	if err != nil {
		return err
	}
	if res.Cycles != c.Cycles {
		return fmt.Errorf("replayed sim took %d cycles, search had %d", res.Cycles, c.Cycles)
	}
	o.tr.add("sim.cycles", float64(res.Cycles))
	o.tr.add("sim.stalls", float64(res.TotalStalls()))
	o.tr.add("sim.dram_transactions", float64(res.DRAM.Transactions))
	o.tr.add("sim.fp_ops", float64(res.TotalFpOps()))
	o.tr.add("sim.lock_contended", float64(res.LockContended))
	return nil
}

// built is the output of the build stages core.Build runs.
type built struct {
	fn *minic.FuncDecl
	k  *ir.Kernel
	s  *schedule.Schedule
	ck *hw.CKernel
}

// buildStages makes core.Build's calls one span per layer.
func buildStages(o ref, src string, opts minic.Options) (*built, error) {
	b := &built{}
	sp := o.child("minic.parse")
	prog, err := minic.Parse(src, opts)
	if err == nil {
		b.fn, _, err = minic.FindTarget(prog)
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = o.child("lower.lower")
	b.k, err = lower.Lower(prog)
	if err == nil {
		err = ir.Validate(b.k)
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = o.child("schedule.build")
	b.s, err = schedule.Build(b.k, schedule.DefaultConfig())
	if err == nil {
		err = b.s.Validate()
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = o.child("hw.compile")
	b.ck, err = hw.Compile(b.k, b.s)
	sp.end()
	if err != nil {
		return nil, err
	}
	o.tr.add("lower.ir_nodes", float64(irNodes(b.k)))
	o.tr.add("schedule.stages", float64(b.s.TotalStages()))
	return b, nil
}

func (s *search) requests(r *run) []time.Duration { return r.passes }

func (s *search) layers(tr *tracer, passes int, m map[string]float64) {
	spanMetrics(tr, passes, m)
	if n := s.hits.Hits + s.hits.Misses; n > 0 {
		m["core.cache_hit_ratio"] = float64(s.hits.Hits) / float64(n)
	}
	if sims := m["autotune.sims_run"]; sims > 0 {
		m["autotune.useful_sim_ratio"] = m["autotune.useful_sims"] / sims
	}
	if c := m["autotune.candidates"]; c > 0 {
		m["autotune.pruned_ratio"] = m["autotune.pruned"] / c
	}
}

func (s *search) report(w io.Writer, r *run) {
	res := s.last
	if res == nil {
		return
	}
	fmt.Fprintf(w, "search: autotune.Optimize on gemm-naive DIM=%d, budget %d, %d workers, %d passes\n",
		searchDim, searchBudget, workers, len(r.passes)+len(r.traced))
	fmt.Fprintf(w, "  baseline %d cycles -> winner %s at %d cycles (%.2fx); hand double-buffered %d cycles\n",
		res.BaselineCycles, res.Winner, res.WinnerCycles, float64(res.BaselineCycles)/float64(res.WinnerCycles), s.handCycles)
	fmt.Fprintf(w, "  candidates %d, sims_run %d of %d, sim_cycles %d, rounds %d\n",
		len(res.Candidates), res.SimsRun, searchBudget, simCycles(res), res.Rounds)
	fmt.Fprintf(w, "  verdicts: %s\n", counts(verdicts(res)))
}

func (s *search) close() {}
