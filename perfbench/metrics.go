package main

import (
	"fmt"
	"io"

	"mfup/internal/machdef"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions, in the same order; it has no room for
// doc, which for an end-to-end metric defines it and for a per-layer
// metric names the end-to-end metric and workload a change to its
// layer should move.
type metricDef struct {
	name, unit, better, doc string
}

// endToEnd are the metrics every workload reports from its untraced
// run: what a user of mfutables or mfud waits for and pays.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", "ops completed per second of the timed window"},
	{"op_p50_ms", "ms", "lower", "median op latency"},
	{"op_tail_ms", "ms", "lower", "highest percentile up to p90 with at least ten samples beyond it"},
	{"cpu_ms_per_op", "ms", "lower", "process user+system CPU per op"},
	{"alloc_mb_per_op", "MB", "lower", "Go heap bytes allocated per op"},
	{"setup_s", "s", "lower", "process start until ready, median of fresh processes"},
	{"peak_rss_mb", "MB", "lower", "peak resident memory of the measuring process"},
	{"ok_ratio", "ratio", "higher", "ops whose output verified, over ops attempted"},
}

// perLayer are the metrics of the traced run, each timed or counted
// around calls into one layer's public functions from this benchmark.
var perLayer = func() []metricDef {
	ms := []metricDef{}
	for n := 1; n <= 8; n++ {
		ms = append(ms, metricDef{tableSpans[n] + "_ms", "ms", "lower", "tables/op_p50_ms"})
	}
	ms = append(ms,
		metricDef{"tables.t7_mallocs", "count", "lower", "tables/alloc_mb_per_op, tables/cpu_ms_per_op"},
		metricDef{"tables.t8_mallocs", "count", "lower", "tables/alloc_mb_per_op, tables/cpu_ms_per_op"},
	)
	for _, k := range machdef.Kinds() {
		ms = append(ms, metricDef{"sim." + k + ".minstr_per_s", "Minstr/s", "higher",
			"tables/ops_per_s for the kinds in Tables 1-8; jobs_cold/op_p50_ms for all ten"})
	}
	return append(ms,
		metricDef{"sim.ruu.mallocs_per_run", "count", "lower", "tables/alloc_mb_per_op"},
		metricDef{"sim.ooo.mallocs_per_run", "count", "lower", "tables/alloc_mb_per_op"},
		metricDef{"limits.ms", "ms", "lower", "tables/op_p50_ms (small share)"},
		metricDef{"asm.assemble_ms", "ms", "lower", "jobs_cold/op_p50_ms"},
		metricDef{"emu.trace_ms", "ms", "lower", "jobs_cold/op_p50_ms"},
		metricDef{"trace.prepare_ms", "ms", "lower", "jobs_cold/op_p50_ms"},
		metricDef{"emu.alloc_mb", "MB", "lower", "jobs_cold/alloc_mb_per_op, jobs_cold/peak_rss_mb"},
		metricDef{"trace.shared_ms", "ms", "lower", "tables/setup_s"},
		metricDef{"trace.period_ms", "ms", "lower", "jobs_cold/op_tail_ms"},
		metricDef{"extrap.run_ms", "ms", "lower", "jobs_cold/op_tail_ms"},
		metricDef{"extrap.engaged_ratio", "ratio", "higher", "jobs_cold/op_tail_ms"},
		metricDef{"dse.plan_ms", "ms", "lower", "jobs_cold/op_tail_ms"},
		metricDef{"dse.pruned_ratio", "ratio", "higher", "jobs_cold/op_tail_ms"},
		metricDef{"dse.simulated_points", "count", "lower", "jobs_cold/op_tail_ms"},
		metricDef{"cache.put_us", "us", "lower", "jobs_cold/op_p50_ms"},
		metricDef{"cache.get_us", "us", "lower", "jobs_cached/op_p50_ms"},
		metricDef{"cache.replay_ms", "ms", "lower", "jobs_cached/setup_s"},
		metricDef{"serve.canonicalize_us", "us", "lower", "jobs_cached/op_p50_ms, jobs_cached/cpu_ms_per_op"},
		metricDef{"serve.key_us", "us", "lower", "jobs_cached/op_p50_ms, jobs_cached/cpu_ms_per_op"},
		metricDef{"serve.handler_us", "us", "lower", "jobs_cached/op_p50_ms, jobs_cached/cpu_ms_per_op"},
		metricDef{"http.overhead_us", "us", "lower", "jobs_cached/ops_per_s"},
		metricDef{"serve.overhead_ms", "ms", "lower", "jobs_cold/op_p50_ms"},
		metricDef{"serve.hit_ratio", "ratio", "higher", "guards the workload definitions: 0 on jobs_cold, 1 on jobs_cached"},
		metricDef{"router.hop_us", "us", "lower", "latency of a routed mfud request; only the layer suite routes, no workload does"},
		metricDef{"cluster.rank_us", "us", "lower", "latency of a routed mfud request; no workload routes"},
		metricDef{"router.failovers", "count", "lower", "0 on a healthy cluster; no workload routes"},
		metricDef{"router.hedges", "count", "lower", "0 on a healthy cluster; no workload routes"},
		metricDef{"tracing.overhead_p50_ms", "ms", "lower", "traced minus untraced op_p50_ms of the same process"},
		metricDef{"tracing.overhead_ops_per_s", "1/s", "higher", "traced minus untraced ops_per_s of the same process"},
	)
}()

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect keeps the value of every metric of defs, printing one line
// per metric to w; a metric missing from values is an error in the
// benchmark itself.
func collect(w io.Writer, defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %-9s %s\n", d.name, v, d.unit, d.doc)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}
