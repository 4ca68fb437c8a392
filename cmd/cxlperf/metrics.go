package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units; the smoke test checks
// that every one it names is emitted.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the simulator sees, reported by the
// untraced run of every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_ms_p50", "ms"},
	{"mem_mb_p50", "MB"},
}

// suiteSections are the experiment sections the suite workload renders,
// in registry order; each gets a busy-time metric.
var suiteSections = []string{
	"table3", "fig3", "fig4", "fig5", "fig6", "wqsweep", "infer", "workload", "cluster",
}

// serviceTiers are the X-Cache values a section or measure response
// carries.
var serviceTiers = []string{"hit-mem", "hit-disk", "miss", "coalesced"}

// perLayerMetrics are reported by the traced run (-trace 1). Every
// workload reports all of them; a layer the workload does not reach
// reports 0. Units "sim-ns" and "sim-us" are simulated time; every other
// time unit is host time.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, s := range suiteSections {
		defs = append(defs, metricDef{"experiments." + s + ".busy_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"experiments.render_ms", "ms"},
		metricDef{"runner.critical_job_ms", "ms"},
		metricDef{"runner.idle_frac", "ratio"},

		metricDef{"device.d2h_call_ns_p50", "ns"},
		metricDef{"device.d2d_call_ns_p50", "ns"},
		metricDef{"host.h2d_call_ns_p50", "ns"},
		metricDef{"device.hmc_hit_ratio", "ratio"},
		metricDef{"device.dmc_hit_ratio", "ratio"},
		metricDef{"host.llc_hit_ratio", "ratio"},
		metricDef{"access.sim_ns_mean.d2h", "sim-ns"},
		metricDef{"access.sim_ns_mean.d2d", "sim-ns"},
		metricDef{"access.sim_ns_mean.h2d", "sim-ns"},
		metricDef{"access.count.d2h", "count"},
		metricDef{"access.count.d2d", "count"},
		metricDef{"access.count.h2d", "count"},

		metricDef{"fabric.build_ms", "ms"},
		metricDef{"cluster.new_ms", "ms"},
		metricDef{"cluster.run_ms", "ms"},
		metricDef{"cluster.host_ns_per_access", "ns"},
		metricDef{"cluster.accesses", "count"},
		metricDef{"cluster.gen_tokens", "count"},
		metricDef{"cluster.switch_wait_us", "sim-us"},
		metricDef{"cluster.peak_queue", "count"},
		metricDef{"cluster.shared_bytes", "bytes"},
	)
	for _, t := range serviceTiers {
		defs = append(defs, metricDef{"service.handler_ms_p50." + t, "ms"})
	}
	for _, t := range serviceTiers {
		defs = append(defs, metricDef{"service.tier_frac." + t, "ratio"})
	}
	defs = append(defs,
		metricDef{"service.ok_responses", "count"},
		metricDef{"service.client_overhead_ms_p50", "ms"},
		metricDef{"service.shed_429", "count"},
		metricDef{"store.get_us_p50", "us"},
		metricDef{"store.put_us_p50", "us"},

		metricDef{"dist.worker_run_ms_p50", "ms"},
		metricDef{"dist.overhead_ms_p50", "ms"},
		metricDef{"dist.chunks_per_request", "count"},
		metricDef{"dist.local_fallbacks", "count"},
		metricDef{"dist.chunks_reassigned", "count"},

		metricDef{"client.ops", "count"},
		metricDef{"client.tail_pct", "%"},
		metricDef{"client.latency_ms_tail", "ms"},
		metricDef{"client.slo_frac", "ratio"},

		metricDef{"calib.probe_ms", "ms"},
		metricDef{"calib.raw_latency_ms_p50", "ms"},
		metricDef{"runtime.peak_rss_mb", "MB"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"runtime.gc_per_op", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}()

// metrics collects one run's values by name.
type metrics map[string]float64

// set records a value. A NaN or infinity (a ratio over an empty base) is
// recorded as 0, so the result stays valid JSON.
func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit returns the values of defs in the result's JSON shape, 0 for any
// metric the workload did not set. A value set under a name defs does not
// list is a bug in the workload and is reported as an error.
func (m metrics) emit(defs []metricDef) (map[string]valueJSON, error) {
	known := make(map[string]bool, len(defs))
	out := make(map[string]valueJSON, len(defs))
	for _, d := range defs {
		known[d.name] = true
		out[d.name] = valueJSON{Value: m[d.name], Unit: d.unit}
	}
	for name := range m {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}

type valueJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line a run prints.
type resultJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueJSON `json:"metrics"`
}
