package absint_test

// The exactness golden pins every published fact of the interpreter on
// the seed workloads, their one-step transformation candidates, the
// staticcheck fixtures and the example kernels. The solver may change
// how it reaches the fixpoint, never what it publishes: any difference
// from testdata/results.golden is a regression. Regenerate with -update
// only when a change to the analysis is meant to move facts.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"paravis/internal/absint"
	"paravis/internal/minic"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

// widenDelays are the solver settings every program is analyzed at:
// the default, immediate widening, and a longer delay.
var widenDelays = []int{0, -1, 3}

// render prints every field of r in a canonical order. Map-backed and
// sort-tied collections are rendered line by line and the lines sorted.
func render(r *absint.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ok=%v nt=%d\n", r.OK, r.NT)
	section := func(name string, lines []string) {
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s %d\n", name, len(lines))
		for _, l := range lines {
			b.WriteString("  " + l + "\n")
		}
	}
	var loops []string
	for st, lf := range r.Loops {
		loops = append(loops, fmt.Sprintf("%s pos=%s reach=%v body=%v trips=%s own=%v",
			lf.Name, lf.Pos, lf.Reachable, lf.BodyReachable, lf.Trips, lf.Loop == st && r.Loop(st) == lf))
	}
	section("loops", loops)
	var accs []string
	for _, f := range r.Accesses {
		lo, hi, ok := r.IndexRange(f.Node)
		accs = append(accs, fmt.Sprintf("%s %T %s write=%v %s dim=%d size=%d index=%s elem=%s/%v width=%d range=%d..%d/%v own=%v",
			f.Pos, f.Node, f.Array, f.Write, f.Verdict, f.BadDim, f.DimSize, f.Index, f.Elem, f.ElemOK, f.Width,
			lo, hi, ok, r.Access(f.Node) == f))
	}
	section("accesses", accs)
	var divs []string
	for _, d := range r.Divs {
		divs = append(divs, fmt.Sprintf("%s rem=%v divisor=%s zero=%v may=%v",
			d.Pos, d.IsRem, d.Divisor, d.ProvenZero, d.MayZero))
	}
	section("divs", divs)
	var conds []string
	for _, c := range r.Conds {
		conds = append(conds, fmt.Sprintf("%s %T loop=%v true=%v false=%v",
			c.Pos, c.Stmt, c.IsLoop, c.AlwaysTrue, c.AlwaysFalse))
	}
	section("conds", conds)
	var hints []string
	for name, h := range r.TripHints() {
		hints = append(hints, fmt.Sprintf("%s %d..%d", name, h[0], h[1]))
	}
	section("trip-hints", hints)
	return b.String()
}

// renderAll analyzes every function of prog symbolically and under env
// at each widening delay.
func renderAll(prog *minic.Program, env map[string]int64) string {
	var b strings.Builder
	for _, fn := range prog.Funcs {
		for _, mode := range []struct {
			name string
			env  map[string]int64
		}{{"symbolic", nil}, {"params", env}} {
			for _, d := range widenDelays {
				fmt.Fprintf(&b, "## %s %s delay=%d\n", fn.Name, mode.name, d)
				b.WriteString(render(absint.Analyze(fn, absint.Options{Env: mode.env, WidenDelay: d})))
			}
		}
	}
	return b.String()
}

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// candidateSteps crosses a structural target with the search's default
// parameter grid.
func candidateSteps(s transform.Step) []transform.Step {
	with := func(ps ...map[string]int64) []transform.Step {
		var out []transform.Step
		for _, p := range ps {
			out = append(out, transform.Step{Pass: s.Pass, Loop: s.Loop, Params: p})
		}
		return out
	}
	switch s.Pass {
	case transform.PassUnroll:
		return with(map[string]int64{"factor": 2}, map[string]int64{"factor": 4})
	case transform.PassTile:
		return with(map[string]int64{"size": 4}, map[string]int64{"size": 8}, map[string]int64{"size": 16})
	case transform.PassBlockBRAM:
		var ps []map[string]int64
		for _, bs := range []int64{4, 8, 16} {
			ps = append(ps, map[string]int64{"bs": bs, "vec": 1}, map[string]int64{"bs": bs, "vec": 0})
		}
		return with(ps...)
	}
	return []transform.Step{s}
}

func stepLabel(s transform.Step) string {
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var ps []string
	for _, k := range keys {
		ps = append(ps, fmt.Sprintf("%s=%d", k, s.Params[k]))
	}
	return fmt.Sprintf("%s(%s){%s}", s.Pass, s.Loop, strings.Join(ps, ","))
}

// scalarEnv binds every non-pointer parameter to 5, as the fuzzer does.
func scalarEnv(prog *minic.Program) map[string]int64 {
	env := map[string]int64{}
	for _, fn := range prog.Funcs {
		for _, p := range fn.Params {
			if !p.Type.IsPointer() {
				env[p.Name] = 5
			}
		}
	}
	return env
}

func goldenText(t *testing.T) string {
	var b strings.Builder
	var digests []string
	for _, u := range workloads.Units() {
		prog, err := minic.Parse(u.Source, minic.Options{Defines: u.Defines})
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		fmt.Fprintf(&b, "# seed %s\n%s", u.Name, renderAll(prog, u.Params))

		// One-step candidates start from the canonical printed source,
		// as the search's first round does.
		lanes := minic.Lanes(0, u.Defines)
		canon, err := minic.Parse(minic.Print(prog), minic.Options{VectorLanes: lanes})
		if err != nil {
			t.Fatalf("%s: reparse: %v", u.Name, err)
		}
		base, err := transform.Prepare(minic.Print(canon), transform.Options{VectorLanes: lanes, Params: u.Params})
		if err != nil {
			t.Fatalf("%s: prepare: %v", u.Name, err)
		}
		targets, err := base.Targets()
		if err != nil {
			t.Fatalf("%s: targets: %v", u.Name, err)
		}
		for _, tg := range targets {
			for _, s := range candidateSteps(tg) {
				out, err := base.Apply(s)
				if err != nil {
					continue
				}
				cp, err := minic.Parse(out, minic.Options{VectorLanes: lanes})
				if err != nil {
					t.Fatalf("%s %s: candidate does not parse: %v", u.Name, stepLabel(s), err)
				}
				digests = append(digests, fmt.Sprintf("candidate %s %s %s", u.Name, stepLabel(s), digest(renderAll(cp, u.Params))))
			}
		}
	}
	var files []string
	for _, pat := range []string{"../staticcheck/testdata/*.mc", "../../examples/kernels/*.mc"} {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("no files match %s: %v", pat, err)
		}
		files = append(files, m...)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minic.Parse(string(src), minic.Options{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		digests = append(digests, fmt.Sprintf("file %s %s", filepath.ToSlash(path), digest(renderAll(prog, scalarEnv(prog)))))
	}
	fmt.Fprintf(&b, "# digests %d\n%s\n", len(digests), strings.Join(digests, "\n"))
	return b.String()
}

// TestResultsGolden: every Result field, for every program above, at
// every widening delay, symbolic and parameter-bound, matches the
// committed golden byte for byte.
func TestResultsGolden(t *testing.T) {
	got := goldenText(t)
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("results differ from golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// BenchmarkAnalyze times one Analyze call per seed workload, symbolic
// and with the seed's launch parameters bound.
func BenchmarkAnalyze(b *testing.B) {
	for _, u := range workloads.Units() {
		prog, err := minic.Parse(u.Source, minic.Options{Defines: u.Defines})
		if err != nil {
			b.Fatalf("%s: %v", u.Name, err)
		}
		fn, _, err := minic.FindTarget(prog)
		if err != nil {
			b.Fatalf("%s: %v", u.Name, err)
		}
		for _, mode := range []struct {
			name string
			env  map[string]int64
		}{{"symbolic", nil}, {"params", u.Params}} {
			b.Run(u.Name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !absint.Analyze(fn, absint.Options{Env: mode.env}).OK {
						b.Fatal("solver did not converge")
					}
				}
			})
		}
	}
}
