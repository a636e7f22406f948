package main

import "fmt"

// metricDef names one reported metric. The lists below are the
// benchmark's metric catalogue; BENCHMARK.json repeats them and a test
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"success_rate", "ratio", "higher", 0.01},
	{"alloc_mb_per_query", "MB", "lower", 0.05},
	{"allocs_per_query", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"moved_mb_per_query", "MB", "lower", 0.1},
	{"cpu_mb_per_query", "MB", "lower", 0.1},
}

// Fabric devices and links of the two cluster presets whose busy time
// or bytes a workload can move.
var (
	fabricDevices = []string{
		"compute0.cpu", "compute1.cpu", "storage.media", "storage.nic", "storage.proc",
	}
	fabricLinks = []string{
		"compute0.dram--compute0.cpu", "compute0.dram--compute0.nma", "compute0.nic--compute0.dram",
		"compute0.nma--compute0.cpu", "compute1.dram--compute1.nma", "compute1.nic--compute1.dram",
		"compute1.nma--compute1.cpu", "storage.media--storage.proc", "storage.nic--switch",
		"storage.proc--storage.nic", "switch--compute0.nic", "switch--compute1.nic",
	}
)

// perLayer are the metrics of single layers, reported by the traced
// run. Metrics of a layer a workload does not reach read 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sqlparse.parse_us", "us", "lower", 0},
		{"plan.plan_us", "us", "lower", 0},
		{"plan.variants", "count", "lower", 0},
		{"sched.admit_us", "us", "lower", 0},
		{"sched.release_us", "us", "lower", 0},
		{"core.execute_plan_ms", "ms", "lower", 0},
		{"core.execute_ms", "ms", "lower", 0},
		{"core.residual_ms", "ms", "lower", 0},
		{"core.query_self_us", "us", "lower", 0},
		{"core.cpu_ms_per_query", "ms", "lower", 0},
		{"core.stats_s", "s", "lower", 0},
		{"storage.scan_ms", "ms", "lower", 0},
		{"storage.unmarshal_ms", "ms", "lower", 0},
		{"storage.segments", "count", "lower", 0},
		{"storage.pruned_segments", "count", "higher", 0},
		{"storage.encoded_segments", "count", "higher", 0},
		{"storage.decoded_mb", "MB", "lower", 0},
		{"storage.decode_saved_mb", "MB", "higher", 0},
		{"storage.append_s", "s", "lower", 0},
		{"storage.stored_mb", "MB", "lower", 0},
		{"encoding.decode_ms", "ms", "lower", 0},
		{"encoding.eval_ms", "ms", "lower", 0},
		{"expr.filter_ms", "ms", "lower", 0},
		{"expr.agg_ms", "ms", "lower", 0},
		{"expr.groups", "count", "lower", 0},
		{"flow.data_msgs", "count", "lower", 0},
		{"flow.credit_msgs", "count", "lower", 0},
		{"flow.credit_stalls", "count", "lower", 0},
		{"flow.port_mb", "MB", "lower", 0},
		{"exec.build_ms", "ms", "lower", 0},
		{"exec.probe_ms", "ms", "lower", 0},
		{"exec.join_rows", "count", "higher", 0},
		{"join.materialize_ms", "ms", "lower", 0},
		{"netsim.exchange_join_ms", "ms", "lower", 0},
		{"bufferpool.hit_ratio", "ratio", "higher", 0},
		{"bufferpool.misses_per_query", "count", "lower", 0},
		{"bufferpool.resident_mb", "MB", "lower", 0},
		{"fabric.cpu_busy_ms", "ms", "lower", 0},
		{"sim_time_ms_per_query", "ms", "lower", 0},
		{"go.gc_per_query", "count", "lower", 0},
		{"go.gc_cpu_frac", "ratio", "lower", 0},
		{"trace.untraced_p50_ms", "ms", "lower", 0},
		{"trace.traced_p50_ms", "ms", "lower", 0},
		{"trace.overhead_ratio", "ratio", "lower", 0},
		{"host.cpu_probe_ms", "ms", "lower", 0},
		{"host.mem_probe_ms", "ms", "lower", 0},
	}
	for _, d := range fabricDevices {
		m = append(m, metricDef{"fabric.busy_ms." + d, "ms", "lower", 0})
	}
	for _, l := range fabricLinks {
		m = append(m, metricDef{"fabric.link_mb." + l, "MB", "lower", 0})
	}
	return m
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills every metric of defs from vals; a metric missing from
// vals reads 0. A value of no metric in defs is an error.
func report(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which is not in the metric catalogue", name)
		}
	}
	return out, nil
}
