package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/fleet"
	"amuletiso/internal/kernel"
	"amuletiso/internal/mem"
	"amuletiso/internal/torture"
)

// workloadNames lists the workloads in the order -workload all runs them.
func workloadNames() []string {
	return []string{"fleet-wide", "daemon-power", "torture-diff"}
}

// newWorkload builds the named workload for a seed, or nil for an unknown
// name. The seed is the only input: scenarios and job specs derive from it.
func newWorkload(name string, seed uint64) workload {
	switch name {
	case "fleet-wide":
		return &fleetWorkload{sc: fleetWideScenario(seed), probeDevices: 1000}
	case "daemon-power":
		return newDaemonWorkload(seed)
	case "torture-diff":
		return &tortureWorkload{cfg: tortureConfig(seed)}
	}
	return nil
}

// fleetWideScenario is two apps on 100k devices for 100 simulated ms each:
// host time goes to device boot, COW faults, allocation and GC.
func fleetWideScenario(seed uint64) fleet.Scenario {
	ped, _ := apps.ByName("pedometer")
	hr, _ := apps.ByName("hr")
	return fleet.Scenario{
		Name: "bench-fleet-wide", Apps: []apps.App{ped, hr}, Mode: cc.ModeMPU,
		DurationMS: 100, Devices: 100_000, Seed: seed,
	}
}

// tortureConfig is a differential campaign: every generated program runs
// under the unprotected baseline and every isolated mode its dialect admits
// (all four for the restricted-dialect quarter).
func tortureConfig(seed uint64) torture.Config {
	cfg := torture.DefaultConfig(torture.KindDifferential)
	cfg.Programs = 300
	cfg.Seed = seed
	cfg.Workers = workers
	// A failing case is counted and reported, not minimized: shrinking
	// could run for minutes.
	cfg.Shrink = false
	return cfg
}

// reportJSON encodes a report exactly as amuletfleet -json and the fleetd
// report endpoint do.
func reportJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// reportExact extracts a fleet report's exact simulated figures.
func reportExact(rep *fleet.Report) map[string]float64 {
	return map[string]float64{
		"report.insns":            float64(rep.TotalInsns),
		"report.dispatches":       float64(rep.TotalDispatches),
		"report.syscalls":         float64(rep.TotalSyscalls),
		"report.cycles":           float64(rep.TotalCycles),
		"report.faults":           float64(rep.TotalFaults),
		"report.brownouts":        float64(rep.TotalBrownouts),
		"sim.cycles_per_dispatch": ratio(float64(rep.TotalCycles), float64(rep.TotalDispatches)),
		"sim.latency_p99_cycles":  float64(rep.LatencySummary.P99),
	}
}

// exactCounters are the obs series that must repeat exactly between passes
// over the same input.
var exactCounters = []string{
	"kernel.dispatches", "kernel.syscalls", "kernel.faults", "kernel.restarts",
	"kernel.watchdog_trips", "fleet.sim_instr", "power.brownouts", "power.reboots",
}

// addExactCounters copies the pass's exact obs counts into p.exact. It runs
// from passResult.after, once runPasses has read the counters.
func addExactCounters(p *passResult) {
	for _, k := range exactCounters {
		p.exact[k] = float64(p.counters[k])
	}
}

// fleetWorkload runs one fixed fleet scenario per pass through
// fleet.Runner.Run (closed loop: one pass after another).
type fleetWorkload struct {
	sc           fleet.Scenario
	probeDevices int
	runner       *fleet.Runner
}

func (w *fleetWorkload) setup(_ context.Context, tr *tracer) (map[string]float64, error) {
	w.runner = &fleet.Runner{Workers: workers, Cache: fleet.NewBuildCache()}
	build, err := tr.timed("aft.BuildCache.Get", 0, func() error {
		_, err := w.runner.Cache.Get(w.sc.Apps, w.sc.Mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	tmpl, err := tr.timed("fleet.BuildCache.Template", 0, func() error {
		_, err := w.runner.Cache.Template(w.sc.Apps, w.sc.Mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"aft.build_s": build, "kernel.template_s": tmpl}, nil
}

func (w *fleetWorkload) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	var rep *fleet.Report
	wall, err := tr.timed("fleet.Runner.Run", 0, func() error {
		var err error
		rep, err = w.runner.Run(ctx, w.sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &passResult{
		wall: wall, busy: wall, latencies: []float64{wall},
		devices:   float64(rep.Devices),
		exact:     reportExact(rep),
		attempted: rep.Devices, failed: rep.DevicesFaulted,
		hold: rep,
		after: func(p *passResult) {
			addExactCounters(p)
			b, err := reportJSON(rep)
			if err != nil {
				p.problems = append(p.problems, "encode report: "+err.Error())
			}
			p.digest = digest(b)
		},
	}
	if rep.DevicesFaulted > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d devices faulted in a fault-free scenario", rep.DevicesFaulted))
	}
	return p, nil
}

func (w *fleetWorkload) probe(ctx context.Context, tr *tracer, last *passResult, vals map[string]float64) error {
	if err := probeLifecycle(tr, w.runner.Cache, w.sc, w.probeDevices, vals); err != nil {
		return err
	}
	if err := probeShards(ctx, tr, w.runner, w.sc, last.digest, vals); err != nil {
		return err
	}
	return probeOverhead(ctx, w.runner, w.sc, last.exact["report.cycles"], vals)
}

func (w *fleetWorkload) minPasses() int { return 2 }

func (w *fleetWorkload) close() {}

// probeLifecycle boots n of the scenario's devices from its boot template,
// wears each through the scenario window, checkpoints and resumes it, and
// checks that the resumed kernel checkpoints to the same bytes.
func probeLifecycle(tr *tracer, cache *fleet.BuildCache, sc fleet.Scenario, n int, vals map[string]float64) error {
	tmpl, err := cache.Template(sc.Apps, sc.Mode)
	if err != nil {
		return err
	}
	arena := mem.NewPageArena()
	var boot, ckpt, resume, size float64
	for i := 0; i < n; i++ {
		seed := fleet.DeviceSeed(sc.Seed, sc.FirstDevice+i)
		var k *kernel.Kernel
		d, _ := tr.timed("kernel.BootTemplate.NewKernelArena", 0, func() error {
			k = tmpl.NewKernelArena(seed, arena)
			return nil
		})
		boot += d
		if sc.Policy != nil {
			k.Policy = *sc.Policy
		}
		k.RunUntil(sc.DurationMS)
		var ck *kernel.Checkpoint
		d, _ = tr.timed("kernel.BootTemplate.Checkpoint", 0, func() error {
			ck = tmpl.Checkpoint(k)
			return nil
		})
		ckpt += d
		want, err := json.Marshal(ck)
		if err != nil {
			return err
		}
		size += float64(len(want))
		var k2 *kernel.Kernel
		d, err = tr.timed("kernel.BootTemplate.Resume", 0, func() error {
			var err error
			k2, err = tmpl.Resume(ck, arena)
			return err
		})
		if err != nil {
			return fmt.Errorf("resume device %d: %w", i, err)
		}
		resume += d
		got, err := json.Marshal(tmpl.Checkpoint(k2))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("device %d: resumed kernel checkpoints differently", i)
		}
		k.Bus.ReleasePages()
		k2.Bus.ReleasePages()
	}
	vals["kernel.boot_us_per_device"] = 1e6 * boot / float64(n)
	vals["kernel.checkpoint_us_per_device"] = 1e6 * ckpt / float64(n)
	vals["kernel.resume_us_per_device"] = 1e6 * resume / float64(n)
	vals["kernel.checkpoint_bytes_per_device"] = size / float64(n)
	return nil
}

// probeShards runs the scenario as four FirstDevice shards, merges them, and
// checks the merge against the one-shot report's digest; it also times the
// report's JSON encoding.
func probeShards(ctx context.Context, tr *tracer, runner *fleet.Runner, sc fleet.Scenario, want string, vals map[string]float64) error {
	const shards = 4
	var merged *fleet.Report
	var runs, merges []float64
	for k := 0; k < shards; k++ {
		sub := sc
		sub.FirstDevice = sc.FirstDevice + k*sc.Devices/shards
		sub.Devices = sc.Devices*(k+1)/shards - sc.Devices*k/shards
		var rep *fleet.Report
		d, err := tr.timed("fleet.Runner.Run/shard", 0, func() error {
			var err error
			rep, err = runner.Run(ctx, sub)
			return err
		})
		if err != nil {
			return err
		}
		runs = append(runs, d)
		if merged == nil {
			merged = rep
			continue
		}
		d, err = tr.timed("fleet.Report.Merge", 0, func() error { return merged.Merge(rep) })
		if err != nil {
			return err
		}
		merges = append(merges, d)
	}
	var b []byte
	enc, err := tr.timed("fleet.Report/json", 0, func() error {
		var err error
		b, err = reportJSON(merged)
		return err
	})
	if err != nil {
		return err
	}
	if got := digest(b); got != want {
		return fmt.Errorf("merge of %d shards has digest %s, one-shot report %s", shards, got, want)
	}
	vals["fleet.shard_run_s"] = mean(runs)
	vals["fleet.merge_s"] = mean(merges)
	vals["fleet.report_encode_s"] = enc
	return nil
}

// probeOverhead runs the MPU scenario unprotected and reports the
// simulated-cycle overhead the MPU build (mpuCycles) paid over it.
func probeOverhead(ctx context.Context, runner *fleet.Runner, sc fleet.Scenario, mpuCycles float64, vals map[string]float64) error {
	base := sc
	base.Mode = cc.ModeNoIsolation
	rep, err := runner.Run(ctx, base)
	if err != nil {
		return err
	}
	vals["sim.overhead_mpu_pct"] = 100 * (mpuCycles - float64(rep.TotalCycles)) / float64(rep.TotalCycles)
	return nil
}

// tortureWorkload runs one fixed differential campaign per pass through
// torture.Run.
type tortureWorkload struct {
	cfg torture.Config
}

// setup runs the first cases past the timed campaign's range: there is no
// build cache, so set-up is the cost of the first programs generated,
// compiled, predecoded and run in a cold process.
func (w *tortureWorkload) setup(ctx context.Context, _ *tracer) (map[string]float64, error) {
	warm := w.cfg
	warm.First = w.cfg.First + w.cfg.Programs
	warm.Programs = 8
	rep, err := torture.Run(ctx, warm)
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		return nil, fmt.Errorf("warm-up campaign: %d cases failed", rep.Failed)
	}
	return nil, nil
}

func (w *tortureWorkload) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	var rep *torture.Report
	wall, err := tr.timed("torture.Run", 0, func() error {
		var err error
		rep, err = torture.Run(ctx, w.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var cycles float64
	for _, c := range rep.ModeCycles {
		cycles += float64(c)
	}
	p := &passResult{
		wall: wall, busy: wall, latencies: []float64{wall},
		exact: map[string]float64{
			"report.passed":        float64(rep.Passed),
			"report.cycles":        cycles,
			"sim.overhead_mpu_pct": rep.OverheadPct[cc.ModeMPU.String()],
		},
		attempted: rep.Programs, failed: rep.Failed,
		hold: rep,
		after: func(p *passResult) {
			addExactCounters(p)
			b, err := json.Marshal(rep)
			if err != nil {
				p.problems = append(p.problems, "encode report: "+err.Error())
			}
			p.digest = digest(b)
		},
	}
	if rep.Failed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d torture cases failed", rep.Failed))
	}
	return p, nil
}

// probe times case generation and execution separately on a sample of
// seeded cases drawn like the campaign's (every fourth restricted).
func (w *tortureWorkload) probe(_ context.Context, tr *tracer, _ *passResult, vals map[string]float64) error {
	const n = 40
	var gen, exec []float64
	seed := w.cfg.Seed
	for i := 0; i < n; i++ {
		seed = splitmix64(seed)
		var c *torture.Case
		d, _ := tr.timed("torture.BuildCase", 0, func() error {
			c = torture.BuildCase(w.cfg.Kind, seed, i%w.cfg.RestrictedEvery == 0)
			return nil
		})
		gen = append(gen, d)
		var out *torture.Outcome
		d, _ = tr.timed("torture.Execute", 0, func() error {
			out = torture.Execute(c)
			return nil
		})
		exec = append(exec, d)
		if !out.Pass {
			return fmt.Errorf("probe case seed %d failed: %s: %s", seed, out.Category, out.Reason)
		}
	}
	vals["torture.gen_s"] = mean(gen)
	vals["torture.execute_s"] = mean(exec)
	return nil
}

func (w *tortureWorkload) minPasses() int { return 2 }

func (w *tortureWorkload) close() {}

// splitmix64 expands one seed into a stream of decorrelated ones.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
