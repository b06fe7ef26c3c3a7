package autotune_test

import (
	"context"
	"encoding/json"
	"testing"

	"paravis/internal/autotune"
	"paravis/internal/core"
	"paravis/internal/minic"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

// canonGEMM prints a seed GEMM version in the same canonical form the
// search operates in (defines folded, printer fixpoint).
func canonGEMM(t *testing.T, v workloads.GEMMVersion) string {
	t.Helper()
	p, err := minic.Parse(workloads.GEMMSource(v), minic.Options{Defines: workloads.GEMMDefines(v)})
	if err != nil {
		t.Fatalf("parse seed v%d: %v", v, err)
	}
	re, err := minic.Parse(minic.Print(p), minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatalf("reparse seed v%d: %v", v, err)
	}
	return minic.Print(re)
}

// TestGEMMLadderRediscovery is the ground-truth acceptance test of the
// issue: starting from the naive critical-section GEMM, the search must
// rediscover the paper's hand-optimized sequence on its own —
// redistribute, then BRAM blocking, then double buffering — and the
// winner's simulator-measured cycles must beat the baseline and sit
// inside its perfbound bracket.
func TestGEMMLadderRediscovery(t *testing.T) {
	res, err := autotune.Optimize(context.Background(), "gemm-naive",
		workloads.GEMMSource(workloads.GEMMNaive),
		autotune.Options{
			Defines: workloads.GEMMDefines(workloads.GEMMNaive),
			Params:  map[string]int64{"DIM": 64},
		})
	if err != nil {
		t.Fatal(err)
	}

	wantPasses := []string{transform.PassRedistribute, transform.PassBlockBRAM, transform.PassDoubleBuffer}
	if len(res.WinnerSteps) != len(wantPasses) {
		t.Fatalf("winner steps = %+v, want passes %v", res.WinnerSteps, wantPasses)
	}
	for i, p := range wantPasses {
		if res.WinnerSteps[i].Pass != p {
			t.Errorf("step %d = %s, want %s", i, res.WinnerSteps[i].Pass, p)
		}
	}
	bb := res.WinnerSteps[1].Params
	if bb["bs"] != 8 || bb["vec"] != 1 {
		t.Errorf("block-bram params = %v, want bs=8 vec=1", bb)
	}

	if res.WinnerCycles >= res.BaselineCycles {
		t.Errorf("winner %d cycles not better than baseline %d", res.WinnerCycles, res.BaselineCycles)
	}
	if res.WinnerCycles < res.WinnerLower || (res.WinnerUpperKnown && res.WinnerCycles > res.WinnerUpper) {
		t.Errorf("winner cycles %d outside bracket [%d, %d]", res.WinnerCycles, res.WinnerLower, res.WinnerUpper)
	}

	// The discovered source is byte-identical to the hand-written
	// double-buffered kernel of the paper.
	if want := canonGEMM(t, workloads.GEMMDoubleBuffered); res.WinnerSource != want {
		t.Errorf("winner source differs from hand-written v5:\n--- got ---\n%s\n--- want ---\n%s", res.WinnerSource, want)
	}

	if res.SimsRun > 32 {
		t.Errorf("SimsRun = %d exceeds the default budget of 32", res.SimsRun)
	}

	// Every simulated candidate's emitted source was vetted during the
	// search; double-check the winner independently.
	for _, d := range core.Vet("winner", res.WinnerSource, core.BuildOptions{VectorLanes: 4}) {
		if d.Severity == staticcheck.SevError {
			t.Errorf("winner source has vet error: %s", d)
		}
	}
}

// TestBudgetRespected pins the hard budget: a search allowed N
// simulations runs at most N, and every eligible candidate beyond the
// budget is marked rather than silently dropped.
func TestBudgetRespected(t *testing.T) {
	res, err := autotune.Optimize(context.Background(), "gemm-naive",
		workloads.GEMMSource(workloads.GEMMNaive),
		autotune.Options{
			Defines: workloads.GEMMDefines(workloads.GEMMNaive),
			Params:  map[string]int64{"DIM": 64},
			Budget:  autotune.Budget{Candidates: 4},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimsRun > 4 {
		t.Errorf("SimsRun = %d, budget was 4", res.SimsRun)
	}
	sims, capped := 0, 0
	for _, c := range res.Candidates {
		if c.Simulated {
			sims++
		}
		if c.Verdict == autotune.VerdictBudget {
			capped++
		}
	}
	if sims > 4 {
		t.Errorf("%d candidates carry measurements, budget was 4", sims)
	}
	if capped == 0 {
		t.Errorf("no candidate marked %q despite tiny budget", autotune.VerdictBudget)
	}
}

// TestDeterminism runs the same bounded search with 1, 2 and 4 workers
// (build/vet/bracket and the simulations fan out over them) and twice at
// 4 workers, and requires byte-identical reports.
func TestDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		res, err := autotune.Optimize(context.Background(), "gemm-naive",
			workloads.GEMMSource(workloads.GEMMNaive),
			autotune.Options{
				Defines:   workloads.GEMMDefines(workloads.GEMMNaive),
				Params:    map[string]int64{"DIM": 32},
				Budget:    autotune.Budget{Candidates: 4},
				MaxRounds: 1,
				Workers:   workers,
			})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(4)
	for _, workers := range []int{4, 1, 2} {
		if got := run(workers); string(got) != string(want) {
			t.Errorf("search with %d workers differs from the first 4-worker search:\n%s\n%s", workers, got, want)
		}
	}
}

// TestPiSearch exercises the non-GEMM path: scalar float arguments and
// a kernel where the search finds no proven rewrite. The report must
// still be well-formed with the baseline as winner.
func TestPiSearch(t *testing.T) {
	steps := int64(2048)
	res, err := autotune.Optimize(context.Background(), "pi", workloads.PiSource,
		autotune.Options{
			Defines:   workloads.PiDefines(),
			Params:    map[string]int64{"steps": steps, "threads": 8},
			Floats:    map[string]float64{"step": 1.0 / float64(steps), "final_sum": 0},
			Budget:    autotune.Budget{Candidates: 4},
			MaxRounds: 2,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineCycles <= 0 {
		t.Fatalf("baseline cycles = %d", res.BaselineCycles)
	}
	if res.Winner == "" && res.WinnerCycles != res.BaselineCycles {
		t.Errorf("no winner but WinnerCycles %d != baseline %d", res.WinnerCycles, res.BaselineCycles)
	}
	if res.Winner != "" && res.WinnerCycles >= res.BaselineCycles {
		t.Errorf("winner %q does not improve: %d vs %d", res.Winner, res.WinnerCycles, res.BaselineCycles)
	}
}
