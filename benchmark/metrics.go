package main

import (
	"math"
	"sort"
)

// metricSpec names one printed metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run prints. Every workload defines
// every one of them, and none of them is ever zero.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"heap_alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
}

// deoptReasons are the labels of the JIT deopt counter, in print order.
var deoptReasons = []string{"budget", "irq", "halt", "cpuoff", "text"}

// profileModules are the modules the CPU profile is split into. Samples
// whose leaf frame lies elsewhere (the standard library, the benchmark
// itself, small packages such as abi or apps) count as "other".
var profileModules = []string{
	"cc", "asm", "aft", "isa", "jit", "cpu", "mem", "mpu", "kernel",
	"power", "fleet", "fleetd", "torture", "obs", "runtime", "other",
}

// perLayer lists the metrics a traced run prints. A layer a workload does
// not exercise reads 0 there; so does a ratio whose base is 0 (a
// per-device figure on torture-diff, which has no devices).
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"aft.build_s", "s"},
		{"kernel.template_s", "s"},
		{"aft.firmware_builds", "count"},
		{"kernel.template_builds", "count"},
		{"fleet.build_cache_hit_ratio", "ratio"},

		{"kernel.boot_us_per_device", "us"},
		{"kernel.checkpoint_us_per_device", "us"},
		{"kernel.resume_us_per_device", "us"},
		{"kernel.checkpoint_bytes_per_device", "bytes"},
		{"mem.cow_pages_dirtied_per_device", "count"},
		{"mem.cow_pages_recycled", "count"},
		{"go.mallocs_per_device", "count"},
		{"go.mallocs", "count"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_s", "s"},

		{"fleet.sim_instr", "count"},
		{"fleet.sim_instr_per_s", "1/s"},
		{"jit.blocks_compiled", "count"},
		{"jit.compile_s", "s"},
	}
	for _, r := range deoptReasons {
		m = append(m,
			metricSpec{"jit.deopts." + r + ".per_kinstr", "1/kinstr"},
			metricSpec{"jit.deopts." + r + ".per_device", "count"})
	}
	m = append(m, []metricSpec{
		{"mem.cert_drops", "count"},
		{"mem.watch_invalidations", "count"},

		{"kernel.dispatches", "count"},
		{"kernel.syscalls", "count"},
		{"kernel.faults", "count"},
		{"kernel.restarts", "count"},
		{"kernel.watchdog_trips", "count"},
		{"sim.cycles_per_dispatch", "cycles"},
		{"sim.latency_p99_cycles", "cycles"},
		{"sim.overhead_mpu_pct", "%"},

		{"power.harvest_us_per_device", "us"},
		{"power.brownouts", "count"},
		{"power.reboots", "count"},

		{"fleet.shard_run_s", "s"},
		{"fleet.merge_s", "s"},
		{"fleet.report_encode_s", "s"},

		{"fleetd.submit_s", "s"},
		{"fleetd.queue_wait_s", "s"},
		{"fleetd.run_s", "s"},
		{"fleetd.report_fetch_s", "s"},
		{"fleetd.state_bytes_written", "bytes"},
		{"fleetd.shards_merged", "count"},
		{"fleetd.streams_without_terminal_line", "count"},

		{"torture.gen_s", "s"},
		{"torture.execute_s", "s"},
	}...)
	for _, mod := range profileModules {
		m = append(m, metricSpec{"cpu_share." + mod, "ratio"})
	}
	m = append(m, []metricSpec{
		{"bench.trace_overhead_pct", "%"},
		{"bench.generator_lag_s", "s"},
		{"bench.job_latency_samples", "count"},
		{"bench.failed_frac", "ratio"},
	}...)
	return m
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect renders the catalog's metrics from measured values. A value the
// catalog names but the run did not measure reads 0.
func collect(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank p-quantile (0 < p <= 1) of xs, the
// rule fleet reports use for their own percentiles.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
