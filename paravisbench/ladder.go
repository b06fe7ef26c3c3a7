package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"paravis/internal/absint"
	"paravis/internal/area"
	"paravis/internal/core"
	"paravis/internal/ir"
	"paravis/internal/minic"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
	"paravis/internal/perfbound"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// ladder is the paperbench/nymblesim user path over the six seed
// designs of workloads.Units(): build, profiled run, .prv and .prv.gz
// rendering, and a read-back through ScanPRV into StreamStats. The
// engine does most of the work and the trace path the rest; the static
// stack runs only in set-up, where it computes each design's cycle
// bracket for the soundness check.
type ladder struct {
	seed    int64
	cfg     sim.Config
	designs []*design
}

type design struct {
	unit workloads.Unit
	dim  int
	a, b []float32 // GEMM inputs drawn from the seed (nil for pi)
	want []float32 // GEMM reference product
	// wantSum is pi's reference reduction (final_sum).
	wantSum float64
	bounds  perfbound.CycleBounds

	// first is the first pass's result; every later pass must repeat
	// its simulated counts exactly.
	first *designCounts
}

// designCounts are the deterministic counts of one design's pass.
type designCounts struct {
	cycles, stalls, dram, fpOps, lockContended, prvBytes int64
}

func newLadder(seed int64) *ladder {
	return &ladder{seed: seed, cfg: sim.DefaultConfig()}
}

func (l *ladder) setup(ctx context.Context) error {
	rng := rand.New(rand.NewSource(l.seed))
	l.designs = l.designs[:0]
	for _, u := range workloads.Units() {
		d := &design{unit: u}
		if dim, ok := u.Params["DIM"]; ok {
			d.dim = int(dim)
			n := d.dim * d.dim
			d.a, d.b = make([]float32, n), make([]float32, n)
			for i := range d.a {
				d.a[i] = rng.Float32()*2 - 1
				d.b[i] = rng.Float32()*2 - 1
			}
			d.want = workloads.GEMMRef(d.a, d.b, d.dim)
		} else {
			d.wantSum = float64(workloads.PiRefSum(int(u.Params["steps"]), int(u.Params["threads"])))
		}
		p, err := core.Build(ctx, u.Source, core.BuildOptions{Defines: u.Defines})
		if err != nil {
			return fmt.Errorf("%s: %w", u.Name, err)
		}
		d.bounds = bracket(p, u.Params, l.cfg)
		l.designs = append(l.designs, d)
	}
	return nil
}

// bracket is the static cycle bracket of a design under the simulator's
// machine model: perfbound with absint trip hints.
func bracket(p *core.Program, params map[string]int64, simCfg sim.Config) perfbound.CycleBounds {
	ai := absint.Analyze(p.Fn, absint.Options{Env: params})
	return perfbound.Analyze(p.Kernel, p.Sched, params, boundsConfig(simCfg, ai)).Cycles
}

// boundsConfig mirrors the simulator's machine model in perfbound, with
// absint's trip brackets as hints when the analysis converged.
func boundsConfig(simCfg sim.Config, ai *absint.Result) perfbound.Config {
	cfg := perfbound.DefaultConfig()
	cfg.DRAM = simCfg.DRAM
	cfg.BRAMLatency = simCfg.BRAMLatency
	cfg.SpinRetry = simCfg.SpinRetry
	cfg.ThreadStart = simCfg.ThreadStart
	cfg.Profile = simCfg.Profile
	if ai.OK {
		cfg.TripHints = ai.TripHints()
	}
	return cfg
}

func (d *design) args() sim.Args {
	if d.a == nil {
		u := d.unit
		return sim.Args{Ints: u.Params, Floats: map[string]float64{"step": u.Floats["step"], "final_sum": 0}}
	}
	return sim.Args{
		Ints: map[string]int64{"DIM": int64(d.dim)},
		Buffers: map[string]*sim.Buffer{
			"A": sim.NewFloatBuffer(d.a), "B": sim.NewFloatBuffer(d.b), "C": sim.NewZeroBuffer(d.dim * d.dim),
		},
	}
}

func (l *ladder) pass(ctx context.Context, r *run, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	for _, d := range l.designs {
		r.op(l.runDesign(ctx, d, tr))
	}
	return time.Since(t0), nil
}

// runDesign runs one design's whole path and checks it.
func (l *ladder) runDesign(ctx context.Context, d *design, tr *tracer) error {
	o := tr.op("ladder." + d.unit.Name)
	defer o.end()
	args := d.args()
	var res *sim.Result
	var st *paraver.StreamTrace
	var err error
	if tr == nil {
		res, st, err = l.buildAndRun(ctx, d, args)
	} else {
		res, st, err = l.buildAndRunTraced(ctx, d, args, o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", d.unit.Name, err)
	}
	if st == nil {
		return fmt.Errorf("%s: profiled run produced no trace", d.unit.Name)
	}

	var prv bytes.Buffer
	sp := o.child("paraver.prv_write")
	err = st.WritePRV(&prv)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: write .prv: %w", d.unit.Name, err)
	}
	sp = o.child("paraver.gzip")
	gzBytes, err := writeGz(st)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: write .prv.gz: %w", d.unit.Name, err)
	}
	stats := analysis.NewStreamStats(80, 64)
	sp = o.child("paraver.scan")
	err = paraver.ScanPRV(bytes.NewReader(prv.Bytes()), stats)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: scan .prv: %w", d.unit.Name, err)
	}

	c := &designCounts{
		cycles: res.Cycles, stalls: res.TotalStalls(), dram: res.DRAM.Transactions,
		fpOps: res.TotalFpOps(), lockContended: res.LockContended, prvBytes: int64(prv.Len()),
	}
	tr.add("sim.cycles", float64(c.cycles))
	tr.add("sim.stalls", float64(c.stalls))
	tr.add("sim.dram_transactions", float64(c.dram))
	tr.add("sim.fp_ops", float64(c.fpOps))
	tr.add("sim.lock_contended", float64(c.lockContended))
	tr.add("paraver.prv_bytes", float64(c.prvBytes))
	return d.check(res, args, stats, gzBytes, c)
}

// buildAndRun is the user path through core: Build then Program.Run.
func (l *ladder) buildAndRun(ctx context.Context, d *design, args sim.Args) (*sim.Result, *paraver.StreamTrace, error) {
	p, err := core.Build(ctx, d.unit.Source, core.BuildOptions{Defines: d.unit.Defines})
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Run(ctx, args, l.cfg)
	if err != nil {
		return nil, nil, err
	}
	return out.Result, out.Streams, nil
}

// buildAndRunTraced makes the same calls core.Build and Program.Run make,
// one span per layer, so the traced pass does the untraced pass's work
// with its layers visible.
func (l *ladder) buildAndRunTraced(ctx context.Context, d *design, args sim.Args, o ref) (*sim.Result, *paraver.StreamTrace, error) {
	b, err := buildStages(o, d.unit.Source, minic.Options{Defines: d.unit.Defines})
	if err != nil {
		return nil, nil, err
	}
	sp := o.child("sim.run")
	res, err := sim.Run(ctx, b.ck, args, l.cfg)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = o.child("core.area")
	area.Estimate(b.k, b.s, l.cfg.Profile, area.DefaultCoefficients())
	sp.end()
	sp = o.child("paraver.stream")
	st := paraver.StreamFromProfile(res.Prof, b.k.Name, res.Cycles)
	sp.end()
	sp = o.child("paraver.materialize")
	st.Trace()
	sp.end()
	return res, st, nil
}

func irNodes(k *ir.Kernel) int {
	n := 0
	for _, g := range k.CollectGraphs() {
		n += len(g.Nodes)
	}
	return n
}

// byteCounter counts what is written to it and keeps nothing.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// writeGz renders the .prv.gz body the way the bundle writers do
// (gzip.BestSpeed over the streaming .prv writer) and returns its size.
func writeGz(st *paraver.StreamTrace) (int64, error) {
	var n byteCounter
	zw, err := gzip.NewWriterLevel(&n, gzip.BestSpeed)
	if err != nil {
		return 0, err
	}
	if err := st.WritePRV(zw); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	return int64(n), nil
}

// check compares a pass's outputs with the host reference, the static
// bracket, the trace read-back and the first pass's counts.
func (d *design) check(res *sim.Result, args sim.Args, stats *analysis.StreamStats, gzBytes int64, c *designCounts) error {
	name := d.unit.Name
	if d.a != nil {
		got := args.Buffers["C"].Floats()
		for i, w := range d.want {
			if diff := math.Abs(float64(got[i] - w)); diff > 1e-3+1e-4*math.Abs(float64(w)) {
				return fmt.Errorf("%s: C[%d] = %g, want %g", name, i, got[i], w)
			}
		}
	} else {
		got := res.ScalarsOut["final_sum"]
		if math.Abs(got-d.wantSum) > 1e-5*math.Abs(d.wantSum) {
			return fmt.Errorf("%s: final_sum = %g, want %g", name, got, d.wantSum)
		}
	}
	if c.cycles < d.bounds.Lower || (d.bounds.UpperKnown && c.cycles > d.bounds.Upper) {
		return fmt.Errorf("%s: %d cycles outside the static bracket [%d, %d]", name, c.cycles, d.bounds.Lower, d.bounds.Upper)
	}
	if stats.Hdr.EndTime != c.cycles || stats.Total(paraver.EventFpOps) != c.fpOps {
		return fmt.Errorf("%s: trace read-back (end %d, %d FP ops) disagrees with the run (%d cycles, %d FP ops)",
			name, stats.Hdr.EndTime, stats.Total(paraver.EventFpOps), c.cycles, c.fpOps)
	}
	if gzBytes <= 0 || gzBytes >= c.prvBytes {
		return fmt.Errorf("%s: .prv.gz is %d bytes for a %d-byte .prv", name, gzBytes, c.prvBytes)
	}
	if d.first == nil {
		d.first = c
	} else if *c != *d.first {
		return fmt.Errorf("%s: counts %+v differ from the first pass %+v", name, *c, *d.first)
	}
	return nil
}

func (l *ladder) requests(r *run) []time.Duration { return r.passes }

func (l *ladder) layers(tr *tracer, passes int, m map[string]float64) {
	spanMetrics(tr, passes, m)
}

// paperSpeedup is the paper's §V-C speedup over naive at 512x512, where
// it states one.
var paperSpeedup = map[string]string{
	"gemm-no-critical-sections": "1.14x",
	"gemm-blocked":              "5.28x",
	"gemm-double-buffering":     "19x",
}

func (l *ladder) report(w io.Writer, r *run) {
	fmt.Fprintf(w, "ladder: six seed designs (GEMM DIM=64, pi 102400 steps), seed %d, %d passes\n", r.seed, len(r.passes)+len(r.traced))
	fmt.Fprintf(w, "%-28s %10s %10s %9s %9s %7s %9s %10s  %-21s %8s %9s\n",
		"design", "cycles", "stalls", "dram_tx", "fp_ops", "lock_ct", "prv_bytes", "speedup", "bracket", "paper", "")
	var naive int64
	for _, d := range l.designs {
		c := d.first
		if c == nil {
			continue
		}
		if d.unit.Name == "gemm-naive" {
			naive = c.cycles
		}
		speed := ""
		if d.a != nil && naive > 0 {
			speed = fmt.Sprintf("%.2fx", float64(naive)/float64(c.cycles))
		}
		fmt.Fprintf(w, "%-28s %10d %10d %9d %9d %7d %9d %10s  [%d, %d] %8s\n",
			d.unit.Name, c.cycles, c.stalls, c.dram, c.fpOps, c.lockContended, c.prvBytes, speed,
			d.bounds.Lower, d.bounds.Upper, paperSpeedup[d.unit.Name])
	}
	fmt.Fprintln(w, "paper speedups are the §V-C factors at 512x512 (vectorized: 1.93x over no-critical), shown for")
	fmt.Fprintln(w, "context only: the cycle model is not validated against hardware and the sizes differ, so no error")
	fmt.Fprintln(w, "figure is derived from them.")
}

func (l *ladder) close() {}
