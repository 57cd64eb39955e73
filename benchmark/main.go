// Command amuletbenchmark is the repository's benchmark of record. One
// process runs one seeded workload (or, with -workload all, every workload
// in turn), checks every pass's outputs, and prints one JSON result line:
// end-to-end metrics from untraced passes (-trace 0), or per-layer metrics
// from a traced run (-trace 1). README.md in this directory documents the
// workloads and every metric.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash benchmark/run.sh --workload fleet-wide --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"amuletiso/internal/isa"
)

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

// setupReps is how many cold set-ups a run times; setup_s is their median.
const setupReps = 21

// workers bounds the simulation pool of every workload: the benchmark host
// has two cores.
const workers = 2

// scratchDir holds the benchmark's own files (state dirs, spans) inside the
// checkout it runs from.
const scratchDir = ".bench_build"

// workload is one seeded benchmark input and the harness around it.
type workload interface {
	// setup builds everything a pass needs from cold and returns the
	// per-layer set-up times it measured.
	setup(ctx context.Context, tr *tracer) (map[string]float64, error)
	// pass runs the workload's fixed input once; tr is nil when untraced.
	pass(ctx context.Context, tr *tracer) (*passResult, error)
	// probe runs the traced run's extra per-layer measurements after
	// timing stops, adding metrics to vals. A returned error is a failed
	// correctness check.
	probe(ctx context.Context, tr *tracer, last *passResult, vals map[string]float64) error
	// minPasses is the fewest passes a timed phase runs.
	minPasses() int
	// close releases the workload's resources.
	close()
}

// passResult is what one pass measured.
type passResult struct {
	wall      float64   // host seconds of the pass
	busy      float64   // host seconds the system was busy (= wall, closed loop)
	latencies []float64 // per-job due-to-report latency, seconds
	devices   float64   // simulated devices (0 on torture)
	digest    string    // hash of the pass's outputs
	// exact holds the counts a simulator-only change must leave identical;
	// they must repeat between passes and between traced and untraced runs.
	exact     map[string]float64
	attempted int
	failed    int
	problems  []string
	// layer holds per-pass per-layer values (fleetd timings, lag, ...).
	layer map[string]float64

	// hold keeps the pass's outputs alive until the live heap is measured;
	// after, when set, runs once memory is measured and does the pass's
	// bookkeeping outside the measurement: hashing outputs, verification,
	// shutdown. It may record problems.
	hold  any
	after func(p *passResult)

	counters counters
	mem      memSnapshot
	live     float64 // MB
}

func main() {
	name := flag.String("workload", "fleet-wide", "workload: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 40, "host seconds of timed passes")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	noJIT := flag.Bool("nojit", false, "disable the superblock JIT, for A/B runs of the engine")
	flag.Parse()
	if *noJIT {
		isa.SetJIT(false)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "amuletbenchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "amuletbenchmark:", err)
		os.Exit(1)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if newWorkload(*name, *seed) == nil {
		fmt.Fprintf(os.Stderr, "amuletbenchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}

	printJSON(map[string]any{"host": hostContext(*seed, *name, *trace == 1)})
	ctx := context.Background()
	var results []*result
	for _, n := range names {
		res, _, err := runWorkload(ctx, n, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amuletbenchmark: %s: %v\n", n, err)
			os.Exit(1)
		}
		results = append(results, res)
		if len(names) > 1 {
			printJSON(map[string]any{"workload": n, "result": res})
		}
	}
	final := results[0]
	if len(names) > 1 {
		final = combine(names, results)
	}
	printJSON(final)
	if !final.Correct {
		os.Exit(1)
	}
}

// combine folds per-workload results into one line, metric names prefixed
// with the workload.
func combine(names []string, results []*result) *result {
	out := &result{Correct: true, Metrics: map[string]metricValue{}}
	for i, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[names[i]+"."+k] = v
		}
	}
	return out
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is printed
	}
	fmt.Println(string(b))
}

// hostContext identifies where and how the numbers were taken, so runs
// from different hosts are never compared silently.
func hostContext(seed uint64, name string, traced bool) map[string]any {
	nproc := "unknown"
	if out, err := exec.Command("nproc").Output(); err == nil {
		nproc = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      nproc,
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"seed":       seed,
		"workload":   name,
		"traced":     traced,
		"workers":    workers,
		"jit":        isa.JITEnabled(),
	}
}

// runWorkload performs one run: timed cold set-ups, then untraced passes
// (and, when traced, traced passes plus probes), and renders the result.
// It also returns the untraced passes.
func runWorkload(ctx context.Context, name string, seed uint64, seconds float64, traced bool) (*result, []*passResult, error) {
	var setups []float64
	var w workload
	setupLayers := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(name, seed)
		s := time.Now()
		layers, err := w.setup(ctx, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(s).Seconds())
		for k, v := range layers {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}
	defer w.close()

	budget := seconds
	if traced {
		budget = seconds / 2
	}
	untraced, err := runPasses(ctx, w, budget, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &result{}
	var problems []string
	tally(res, &problems, untraced)

	if !traced {
		vals := endToEndValues(untraced)
		vals["setup_s"] = median(setups)
		res.Metrics = collect(endToEnd, vals)
		return finish(name, res, problems), untraced, nil
	}

	tr, prof := newTracer(), newProfiler()
	tracedPasses, err := runPasses(ctx, w, budget, tr, prof)
	if err != nil {
		return nil, nil, err
	}
	shares := prof.shares()
	tally(res, &problems, tracedPasses)
	problems = append(problems, compareExact(untraced, tracedPasses)...)

	vals := perLayerValues(tracedPasses)
	for k, v := range setupLayers {
		vals[k] = median(v)
	}
	for _, m := range profileModules {
		vals["cpu_share."+m] = shares[m]
	}
	uw := endToEndValues(untraced)["wall_s"]
	tw := endToEndValues(tracedPasses)["wall_s"]
	vals["bench.trace_overhead_pct"] = 100 * (tw - uw) / uw
	if err := w.probe(ctx, tr, tracedPasses[len(tracedPasses)-1], vals); err != nil {
		problems = append(problems, "probe: "+err.Error())
		res.Failed++
	}
	vals["bench.failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	if err := tr.write(fmt.Sprintf("%s/spans-%s-seed%d.json", scratchDir, name, seed)); err != nil {
		return nil, nil, err
	}
	res.Metrics = collect(perLayer, vals)
	return finish(name, res, problems), untraced, nil
}

// finish sets the verdict and reports problems on stderr.
func finish(name string, res *result, problems []string) *result {
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "amuletbenchmark: %s: FAILED CHECK: %s\n", name, p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res
}

// runPasses runs passes until the next one would overrun the budget, and at
// least w.minPasses() of them. Every pass's outputs must hash like the
// first's. A non-nil prof profiles the passes themselves, not the
// bookkeeping between them.
func runPasses(ctx context.Context, w workload, budget float64, tr *tracer, prof *profiler) ([]*passResult, error) {
	var out []*passResult
	start := time.Now()
	for {
		runtime.GC()
		before, mem0 := readCounters(), readMem()
		if prof != nil {
			if err := prof.start(); err != nil {
				return nil, err
			}
		}
		id := tr.start("pass", 0)
		p, err := w.pass(ctx, tr)
		tr.end(id)
		if prof != nil {
			if perr := prof.stop(); err == nil {
				err = perr
			}
		}
		if err != nil {
			return nil, err
		}
		mem1 := readMem()
		p.counters = readCounters().sub(before)
		p.mem = memSnapshot{
			totalAlloc: mem1.totalAlloc - mem0.totalAlloc,
			mallocs:    mem1.mallocs - mem0.mallocs,
			pauseNs:    mem1.pauseNs - mem0.pauseNs,
			numGC:      mem1.numGC - mem0.numGC,
		}
		p.live = liveHeapMB()
		runtime.KeepAlive(p.hold)
		if p.after != nil {
			p.after(p)
			p.after = nil
		}
		p.hold = nil
		if len(out) > 0 && p.digest != out[0].digest {
			p.problems = append(p.problems, fmt.Sprintf("pass %d output digest %s differs from pass 1's %s",
				len(out)+1, p.digest, out[0].digest))
			p.failed = p.attempted
		}
		out = append(out, p)
		fmt.Fprintf(os.Stderr, "pass %d: wall %.4fs alloc %.1fMB live %.1fMB latency samples %d digest %s\n",
			len(out), p.wall, float64(p.mem.totalAlloc)/1e6, p.live, len(p.latencies), p.digest)
		elapsed := time.Since(start).Seconds()
		if len(out) >= w.minPasses() && elapsed+p.wall > budget {
			return out, nil
		}
	}
}

// tally adds the passes' attempts, failures and problems to the result.
func tally(res *result, problems *[]string, passes []*passResult) {
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		*problems = append(*problems, p.problems...)
	}
}

// compareExact checks that the traced passes reproduce the untraced
// passes' outputs and exact counts: tracing must not perturb simulation.
func compareExact(untraced, traced []*passResult) []string {
	var problems []string
	ref := untraced[0]
	for _, p := range traced {
		if p.digest != ref.digest {
			problems = append(problems, fmt.Sprintf("traced output digest %s differs from untraced %s", p.digest, ref.digest))
		}
		keys := make([]string, 0, len(ref.exact))
		for k := range ref.exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if p.exact[k] != ref.exact[k] {
				problems = append(problems, fmt.Sprintf("traced %s = %v, untraced %v", k, p.exact[k], ref.exact[k]))
			}
		}
	}
	return problems
}

// endToEndValues reduces passes to the end-to-end metrics (all but
// setup_s): medians over passes, and latency percentiles over every job of
// every pass.
func endToEndValues(passes []*passResult) map[string]float64 {
	var wall, alloc, live, lat []float64
	for _, p := range passes {
		wall = append(wall, p.wall)
		alloc = append(alloc, float64(p.mem.totalAlloc)/1e6)
		live = append(live, p.live)
		lat = append(lat, p.latencies...)
	}
	return map[string]float64{
		"wall_s":            median(wall),
		"heap_alloc_mb":     median(alloc),
		"live_heap_mb":      median(live),
		"job_latency_p50_s": nearestRank(lat, 0.50),
		"job_latency_p90_s": nearestRank(lat, 0.90),
	}
}

// perLayerValues reduces traced passes to per-layer metrics, each a median
// over passes of the per-pass value.
func perLayerValues(passes []*passResult) map[string]float64 {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, p := range passes {
		c := func(k string) float64 { return float64(p.counters[k]) }
		instr := c("fleet.sim_instr")
		for _, k := range []string{
			"aft.firmware_builds", "kernel.template_builds", "mem.cow_pages_recycled",
			"fleet.sim_instr", "jit.blocks_compiled", "mem.cert_drops", "mem.watch_invalidations",
			"kernel.dispatches", "kernel.syscalls", "kernel.faults", "kernel.restarts",
			"kernel.watchdog_trips", "power.brownouts", "power.reboots", "fleetd.shards_merged",
		} {
			add(k, c(k))
		}
		lookups := c("fleet.cache_hits") + c("aft.firmware_builds")
		add("fleet.build_cache_hit_ratio", ratio(c("fleet.cache_hits"), lookups))
		add("jit.compile_s", c("jit.compile_ns")/1e9)
		add("fleet.sim_instr_per_s", ratio(instr, p.busy))
		add("mem.cow_pages_dirtied_per_device", ratio(c("mem.cow_pages_dirtied"), p.devices))
		add("go.mallocs_per_device", ratio(float64(p.mem.mallocs), p.devices))
		add("go.mallocs", float64(p.mem.mallocs))
		add("go.gc_cycles", float64(p.mem.numGC))
		add("go.gc_pause_s", float64(p.mem.pauseNs)/1e9)
		for _, r := range deoptReasons {
			d := c("jit.deopts." + r)
			add("jit.deopts."+r+".per_kinstr", ratio(d, instr/1000))
			add("jit.deopts."+r+".per_device", ratio(d, p.devices))
		}
		for k, v := range p.exact {
			if strings.HasPrefix(k, "sim.") {
				add(k, v)
			}
		}
		for k, v := range p.layer {
			add(k, v)
		}
		add("bench.job_latency_samples", float64(len(p.latencies)))
	}
	vals := map[string]float64{}
	for k, v := range per {
		vals[k] = median(v)
	}
	return vals
}
