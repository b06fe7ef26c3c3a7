// Command paravisbench is the paravis benchmark: one process runs one of
// three workloads (ladder, search, serve) for a fixed time, checks every
// output, and prints its metrics by name with their units. The last line
// of standard output is one JSON object; everything before it is the
// human-readable report. Run it from the repository root through
// run.sh, which builds it first:
//
//	bash paravisbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it alternates untraced and traced passes of the same
// workload and reports the per-layer metrics from the traced ones, plus
// the tracing overhead (traced minus untraced pass wall time).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes (store
// directories, span dumps), relative to the repository root.
const buildDir = ".bench_build"

// workers bounds worker goroutines and client connections in every
// workload: the benchmark host has two cores.
const workers = 2

// workload is one named traffic shape. setup prepares everything the
// timed passes need and is repeated so its median is steady; pass runs
// one timed pass and returns its wall time (search returns less than the
// call took in traced mode: the attribution replay is not part of the
// pass).
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, r *run, tr *tracer) (time.Duration, error)
	// requests returns the latencies the req_* metrics summarize.
	requests(r *run) []time.Duration
	// layers fills the per-layer metrics of the traced passes.
	layers(tr *tracer, passes int, m map[string]float64)
	report(w io.Writer, r *run)
	close()
}

// run accumulates one process's measurements and check outcomes.
type run struct {
	seed      int64
	attempted int
	failed    int
	failures  []string

	setups []time.Duration
	passes []time.Duration // untraced passes
	traced []time.Duration // traced passes (trace mode only)
}

// op counts one operation; a non-nil err marks it failed or mis-checked.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload: ladder, search or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := benchmark(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "paravisbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "ladder":
		return newLadder(seed), nil
	case "search":
		return newSearch(seed), nil
	case "serve":
		return newServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ladder, search or serve)", name)
}

// setupReps is how many times each workload sets up before timing; the
// reported setup_s is the median.
const setupReps = 9

func benchmark(name string, seed int64, budget time.Duration, traced bool) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	// A hung layer must not hold the process past the run limit.
	ctx, cancel := context.WithTimeout(context.Background(), budget+120*time.Second)
	defer cancel()

	r := &run{seed: seed}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	minPasses := 1
	if traced {
		minPasses = 2 // one untraced, one traced
	}
	start := time.Now()
	for i := 0; ; i++ {
		traceThis := traced && i%2 == 1
		// As testing.B does, collect the previous pass's garbage before
		// timing, so no pass pays for its predecessor's collection.
		runtime.GC()
		t0 := time.Now()
		var ptr *tracer
		if traceThis {
			ptr = tr
		}
		wall, err := w.pass(ctx, r, ptr)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		if traceThis {
			r.traced = append(r.traced, wall)
		} else {
			r.passes = append(r.passes, wall)
		}
		// Stop before a pass that would overrun the budget.
		if i+1 >= minPasses && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}

	w.report(os.Stdout, r)
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		m := map[string]float64{}
		w.layers(tr, len(r.traced), m)
		un, tw := median(r.passes), median(r.traced)
		m["trace.overhead_ms"] = ms(tw - un)
		m["trace.overhead_ratio"] = float64(tw-un) / float64(un)
		for _, lm := range layerMetrics {
			v, ok := m[lm.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[lm.name] = metric{v, lm.unit}
		}
		path, err := tr.dump(filepath.Join(buildDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err != nil {
			return err
		}
		fmt.Printf("spans: %d passes traced, %d untraced; written to %s\n", len(r.traced), len(r.passes), path)
		printLayers(os.Stdout, m)
	} else {
		reqs := w.requests(r)
		var total time.Duration
		for _, d := range r.passes {
			total += d
		}
		out.Metrics["setup_s"] = metric{median(r.setups).Seconds(), "s"}
		out.Metrics["wall_s"] = metric{median(r.passes).Seconds(), "s"}
		out.Metrics["req_p50_ms"] = metric{ms(percentile(reqs, 0.50)), "ms"}
		out.Metrics["req_p95_ms"] = metric{ms(percentile(reqs, 0.95)), "ms"}
		out.Metrics["req_per_s"] = metric{float64(len(reqs)) / total.Seconds(), "1/s"}
		fmt.Printf("requests: %d samples over %d passes (%s); peak RSS %.1f MB\n",
			len(reqs), len(r.passes), total.Round(time.Millisecond), peakRSSMB())
	}
	errRate := float64(r.failed) / math.Max(1, float64(r.attempted))
	fmt.Printf("error_rate: %d failed of %d attempted = %g\n", r.failed, r.attempted, errRate)
	for _, f := range r.failures {
		fmt.Println("  FAIL:", f)
	}
	if r.attempted == 0 {
		return errors.New("no operation attempted")
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printLayers(w io.Writer, m map[string]float64) {
	fmt.Fprintln(w, "per-layer metrics (per traced pass):")
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "  %-14s %-30s %16.6g %s\n", lm.layer, lm.name, m[lm.name], lm.unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of durations; 0 for none.
func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// percentile interpolates linearly between closest ranks, the same
// inclusive method as Python's statistics.quantiles(method="inclusive").
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is in
// KiB on Linux). It is printed, not reported as a metric: the DRAM
// model's 64 MiB backing slabs are pooled and released at GC time, so the
// peak moves in 64 MiB steps between runs of identical work.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// counts renders an integer histogram deterministically.
func counts(h map[string]int) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, h[k])
	}
	return strings.Join(parts, " ")
}
