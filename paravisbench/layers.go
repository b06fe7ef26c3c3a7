package main

// layerMetric is one per-layer metric of the traced run. Times are self
// time summed per traced pass; counts are per traced pass. A layer that
// does no work the benchmark can see on a workload reports 0 there.
type layerMetric struct {
	layer string
	name  string
	unit  string
}

// layerMetrics lists the per-layer metrics in report order. README.md
// names, for each layer, the end-to-end metric it should move and on
// which workload.
var layerMetrics = []layerMetric{
	{"frontend", "minic.parse_ms", "ms"},
	{"frontend", "lower.lower_ms", "ms"},
	{"frontend", "lower.ir_nodes", "count"},
	{"frontend", "schedule.build_ms", "ms"},
	{"frontend", "schedule.stages", "count"},
	{"frontend", "hw.compile_ms", "ms"},
	{"frontend", "core.cache_hit_ratio", "ratio"},

	{"static", "staticcheck.vet_ms", "ms"},
	{"static", "staticcheck.diagnostics", "count"},
	{"static", "absint.analyze_ms", "ms"},
	{"static", "depend.analyze_ms", "ms"},
	{"static", "perfbound.analyze_ms", "ms"},
	{"static", "perfbound.bracket_ratio", "ratio"},

	{"search", "transform.apply_ms", "ms"},
	{"search", "transform.targets", "count"},
	{"search", "autotune.candidates", "count"},
	{"search", "autotune.sims_run", "count"},
	{"search", "autotune.sim_cycles", "cycles"},
	{"search", "autotune.useful_sim_ratio", "ratio"},
	{"search", "autotune.pruned_ratio", "ratio"},
	{"search", "autotune.winner_cycles", "cycles"},
	{"search", "autotune.verdict_not-proven", "count"},
	{"search", "autotune.verdict_not-applicable", "count"},
	{"search", "autotune.verdict_compile-error", "count"},
	{"search", "autotune.verdict_vet-dirty", "count"},
	{"search", "autotune.verdict_pruned", "count"},
	{"search", "autotune.verdict_budget", "count"},
	{"search", "autotune.verdict_sim-error", "count"},
	{"search", "autotune.verdict_wrong-result", "count"},
	{"search", "autotune.verdict_worse", "count"},
	{"search", "autotune.verdict_improved", "count"},
	{"search", "autotune.verdict_winner", "count"},

	{"engine", "sim.run_ms", "ms"},
	{"engine", "sim.mcycles_per_s", "Mcycles/s"},
	{"engine", "sim.cycles", "cycles"},
	{"engine", "sim.stalls", "cycles"},
	{"engine", "sim.dram_transactions", "count"},
	{"engine", "sim.fp_ops", "count"},
	{"engine", "sim.lock_contended", "count"},

	{"trace", "paraver.stream_ms", "ms"},
	{"trace", "paraver.materialize_ms", "ms"},
	{"trace", "paraver.prv_write_ms", "ms"},
	{"trace", "paraver.gzip_ms", "ms"},
	{"trace", "paraver.scan_ms", "ms"},
	{"trace", "paraver.prv_bytes", "bytes"},
	{"trace", "paraver.mb_per_s", "MB/s"},

	{"service", "server.hit_ms", "ms"},
	{"service", "server.miss_ms", "ms"},
	{"service", "server.coalesced_ms", "ms"},
	{"service", "server.vet_ms", "ms"},
	{"service", "server.perf_ms", "ms"},
	{"service", "server.trace_get_ms", "ms"},
	{"service", "server.shed", "count"},
	{"service", "server.sims_started", "ratio"},
	{"service", "store.hit_ratio", "ratio"},
	{"service", "store.coalesced", "count"},
	{"service", "store.puts", "count"},
	{"service", "store.bytes", "bytes"},

	{"tracing", "trace.overhead_ms", "ms"},
	{"tracing", "trace.overhead_ratio", "ratio"},
}

// spanLayers maps the span names the workloads record to the per-layer
// time metric their self time feeds.
var spanLayers = map[string]string{
	"minic.parse":         "minic.parse_ms",
	"lower.lower":         "lower.lower_ms",
	"schedule.build":      "schedule.build_ms",
	"hw.compile":          "hw.compile_ms",
	"staticcheck.vet":     "staticcheck.vet_ms",
	"absint.analyze":      "absint.analyze_ms",
	"depend.analyze":      "depend.analyze_ms",
	"perfbound.analyze":   "perfbound.analyze_ms",
	"transform.apply":     "transform.apply_ms",
	"sim.run":             "sim.run_ms",
	"paraver.stream":      "paraver.stream_ms",
	"paraver.materialize": "paraver.materialize_ms",
	"paraver.prv_write":   "paraver.prv_write_ms",
	"paraver.gzip":        "paraver.gzip_ms",
	"paraver.scan":        "paraver.scan_ms",
}

// spanMetrics converts the tracer's self times and counts into per-pass
// layer metrics, plus the ratios derived from them.
func spanMetrics(tr *tracer, passes int, m map[string]float64) {
	n := float64(passes)
	for name, d := range tr.selfTimes() {
		if metric, ok := spanLayers[name]; ok {
			m[metric] += ms(d) / n
		}
	}
	tr.mu.Lock()
	for name, v := range tr.counts {
		m[name] = v / n
	}
	tr.mu.Unlock()
	if s := m["sim.run_ms"]; s > 0 {
		m["sim.mcycles_per_s"] = m["sim.cycles"] / (s / 1e3) / 1e6
	}
	if s := m["paraver.prv_write_ms"]; s > 0 {
		m["paraver.mb_per_s"] = m["paraver.prv_bytes"] / (s / 1e3) / 1e6
	}
	if b := m["perfbound.brackets"]; b > 0 {
		m["perfbound.bracket_ratio"] = m["perfbound.bracket_ratio_sum"] / b
	}
}
