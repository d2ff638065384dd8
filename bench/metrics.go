package main

import (
	"fmt"

	"repro/internal/dag"
)

// metricDef mirrors one entry of BENCHMARK.json. bench_test.go checks that
// this registry and the file agree, so the names the binary emits are the
// names the driver expects.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them (the driver requires it); README.md tabulates
// what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cold_eval_s", "s", "lower", 0.25},
	{"warm_eval_s", "s", "lower", 0.25},
	{"eval_cpu_s", "s", "lower", 0.25},
	{"evals_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"store_mb_per_plan", "MB", "lower", 0.05},
}

// opNames are the eleven operator classes in the order the ledger prints
// them, keyed to the program's own enumeration.
var opNames = []struct {
	name string
	op   dag.OpKind
}{
	{"s2m", dag.OpS2M}, {"s2l", dag.OpS2L}, {"s2t", dag.OpS2T},
	{"m2m", dag.OpM2M}, {"m2l", dag.OpM2L}, {"l2l", dag.OpL2L},
	{"m2t", dag.OpM2T}, {"l2t", dag.OpL2T},
	{"m2i", dag.OpM2I}, {"i2i", dag.OpI2I}, {"i2l", dag.OpI2L},
}

// perLayer is the ledger: one cost per layer in the layer's own unit,
// prefixed by the module that owns it. A metric that does not apply to a
// workload (wire counters on a library workload) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	var m []metricDef
	add := func(d ...metricDef) { m = append(m, d...) }

	// math: sphharm and kernel operators, on the workload's own kernel,
	// order and expansion sizes.
	add(lo("sphharm.ynm_ns", "ns"), lo("sphharm.bessel_i_ns", "ns"))
	add(lo("kernel.s2m_ns_per_pt", "ns"), lo("kernel.s2l_ns_per_pt", "ns"),
		lo("kernel.m2t_ns_per_pt", "ns"), lo("kernel.l2t_ns_per_pt", "ns"),
		lo("kernel.s2t_ns_per_pair", "ns"), lo("kernel.p2p_ns_per_pair", "ns"),
		lo("kernel.m2m_us", "us"), lo("kernel.m2l_us", "us"), lo("kernel.l2l_us", "us"),
		lo("kernel.m2l_batch_us_per_rhs", "us"),
		lo("kernel.m2i_us", "us"), lo("kernel.i2i_us", "us"), lo("kernel.i2l_us", "us"),
		lo("kernel.ml_bytes", "B"), lo("kernel.i_bytes", "B"),
		lo("kernel.prepare_ms", "ms"), lo("kernel.m2l_build_ms", "ms"), lo("kernel.m2i_build_ms", "ms"))

	// plan build.
	add(lo("tree.build_ms", "ms"), lo("tree.lists_ms", "ms"),
		lo("dag.build_ms", "ms"), lo("dag.batches_ms", "ms"),
		lo("core.new_plan_ms", "ms"), lo("core.plan_residual_ms", "ms"),
		lo("core.first_eval_s", "s"), lo("core.first_eval_extra_s", "s"))
	add(lo("tree.leaves", "count"), lo("tree.max_level", "count"), hi("tree.pts_per_leaf", "count"),
		lo("dag.nodes", "count"), lo("dag.edges", "count"))
	for _, o := range opNames {
		add(lo("dag.edges_"+o.name, "count"))
	}
	add(lo("dag.critical_path_ratio", "ratio"))

	// executor.
	for _, o := range opNames {
		add(lo("core.busy_s_"+o.name, "s"))
	}
	for _, o := range opNames {
		add(lo("core.mean_us_"+o.name, "us"))
	}
	add(lo("core.busy_total_s", "s"), lo("core.exec_overhead_s", "s"),
		hi("core.utilization_mean", "ratio"), hi("core.utilization_tail", "ratio"),
		lo("core.seq_eval_s", "s"), hi("core.par_speedup_2w", "ratio"),
		lo("core.allocs_per_eval", "count"), lo("core.bytes_per_eval", "B"))

	// scheduler.
	add(lo("amt.empty_task_ns", "ns"), lo("amt.metg50_us", "us"),
		lo("amt.tasks_per_eval", "count"), lo("amt.steals_per_eval", "count"),
		lo("amt.failed_steals_per_eval", "count"))

	// wire and fabric.
	add(lo("amt.frame_encode_ns", "ns"), lo("amt.frame_decode_ns", "ns"),
		lo("amt.frame_overhead_bytes", "B"),
		lo("amt.parcels_per_eval", "count"), lo("amt.wire_msgs_per_eval", "count"),
		lo("amt.wire_bytes_per_eval", "B"), lo("amt.wire_retried_per_eval", "count"),
		lo("dist.assign_ms", "ms"), lo("dist.remote_edge_ratio", "ratio"),
		lo("dist.remote_bytes", "B"), hi("dist.efficiency_2r", "ratio"))

	// serve.
	add(lo("serve.queue_wait_ms_p50", "ms"), lo("serve.plan_build_ms_p50", "ms"),
		lo("serve.evaluate_warm_ms_p50", "ms"), lo("serve.evaluate_cold_ms_p50", "ms"),
		lo("serve.http_overhead_ms_p50", "ms"), lo("serve.response_bytes", "B"),
		hi("serve.cache_hit_ratio", "ratio"), hi("serve.coalesced_ratio", "ratio"),
		lo("serve.shed_ratio", "ratio"), lo("serve.degraded_ratio", "ratio"),
		hi("serve.dist_ok_ratio", "ratio"), lo("serve.cpu_s_per_req", "s"),
		lo("serve.store_recover_ms", "ms"))

	// yardsticks: informational, named so nothing is hidden.
	add(lo("baseline.direct_ns_per_pair", "ns"), hi("core.speedup_vs_direct", "ratio"),
		lo("core.rel_l2_err", "ratio"), lo("core.ledger_residual_ratio", "ratio"),
		lo("core.trace_overhead_ratio", "ratio"),
		lo("core.raw_warm_eval_s", "s"), lo("core.raw_warm_cpu_s", "s"),
		hi("core.calib_factor", "ratio"))
	return m
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a workload pass prints as its last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// notes are printed for the reader above the result line: sample
	// counts, tails, the per-class ledger. They are not metrics.
	notes []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// describe notes a timing's sample count and median, calibrated and raw,
// and the highest percentile the sample supports.
func (r *result) describe(name string, cal, raw []float64) {
	tail := "no percentile above the median has ten samples beyond it"
	if p, v, ok := tailPercentile(cal); ok && p > 50 {
		tail = fmt.Sprintf("p%g %.4g s", p, v)
	}
	r.notef("%s: n=%d, median %.4g s calibrated (%.4g s raw), %s", name, len(cal), median(cal), median(raw), tail)
}

// describeCalib notes what the calibration loop read during the window.
func (r *result) describeCalib(samples []float64) {
	r.notef("calibration: n=%d, median %.4g s against a reference of %.4g s (factor %.4f)",
		len(samples), median(samples), calibRefS, calibRefS/median(samples))
}

// newResult returns a result with every metric of defs present and zero,
// so a pass can never emit a partial set.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = value{Unit: d.Unit}
	}
	return r
}

// set records a metric; an unknown name is a bug in the benchmark.
func (r *result) set(name string, v float64) {
	cur, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	cur.Value = v
	r.Metrics[name] = cur
}
