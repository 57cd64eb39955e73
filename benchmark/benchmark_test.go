package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// manifest is the part of ../BENCHMARK.json the tests check.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q printed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestManifestMatchesPrintedMetrics checks that every metric BENCHMARK.json
// declares is printed, with its unit, and every printed metric is declared.
func TestManifestMatchesPrintedMetrics(t *testing.T) {
	m := readManifest(t)
	declared := func(names, units []string) map[string]string {
		out := map[string]string{}
		for i, n := range names {
			out[n] = units[i]
		}
		return out
	}
	printed := func(specs []metricSpec) map[string]string {
		out := map[string]string{}
		for _, s := range specs {
			out[s.Name] = s.Unit
		}
		return out
	}
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, e := range m.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, e.Name), append(e2eUnits, e.Unit)
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, l := range m.PerLayer {
		layerNames, layerUnits = append(layerNames, l.Name), append(layerUnits, l.Unit)
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
	}
	sameSet(t, "end_to_end", declared(e2eNames, e2eUnits), printed(endToEnd))
	sameSet(t, "per_layer", declared(layerNames, layerUnits), printed(perLayer))

	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
}

func sameSet(t *testing.T, what string, declared, printed map[string]string) {
	t.Helper()
	for n, u := range declared {
		if pu, ok := printed[n]; !ok {
			t.Errorf("%s: %s declared but not printed", what, n)
		} else if pu != u {
			t.Errorf("%s: %s declared in %s, printed in %s", what, n, u, pu)
		}
	}
	for n := range printed {
		if _, ok := declared[n]; !ok {
			t.Errorf("%s: %s printed but not declared", what, n)
		}
	}
}

// pins holds the default seed's output digest and exact simulated counts
// per workload. A simulator-only change must leave every one of them
// unchanged; a change to simulated behaviour updates them deliberately.
var pins = map[string]map[string]string{
	"fleet-wide": {
		"digest":                  "930710d646c9a400",
		"fleet.sim_instr":         "36928072",
		"kernel.dispatches":       "400000",
		"kernel.faults":           "0",
		"kernel.restarts":         "0",
		"kernel.syscalls":         "500000",
		"kernel.watchdog_trips":   "0",
		"power.brownouts":         "0",
		"power.reboots":           "0",
		"report.brownouts":        "0",
		"report.cycles":           "136320180",
		"report.dispatches":       "400000",
		"report.faults":           "0",
		"report.insns":            "36928072",
		"report.syscalls":         "500000",
		"sim.cycles_per_dispatch": "340.80045",
		"sim.latency_p99_cycles":  "1024",
	},
	"daemon-power": {
		"digest":                  "23591015ddcf9ae6",
		"fleet.sim_instr":         "191655726",
		"kernel.dispatches":       "1194192",
		"kernel.faults":           "6640",
		"kernel.restarts":         "4880",
		"kernel.syscalls":         "2321552",
		"kernel.watchdog_trips":   "0",
		"power.brownouts":         "2416",
		"power.reboots":           "2336",
		"sim.cycles_per_dispatch": "552.0852877929177",
		"sim.latency_p99_cycles":  "4096",
	},
	"torture-diff": {
		"digest":                "81cb208ae5a74db7",
		"fleet.sim_instr":       "0",
		"kernel.dispatches":     "0",
		"kernel.faults":         "0",
		"kernel.restarts":       "0",
		"kernel.syscalls":       "0",
		"kernel.watchdog_trips": "0",
		"power.brownouts":       "0",
		"power.reboots":         "0",
		"report.cycles":         "8507034",
		"report.passed":         "300",
		"sim.overhead_mpu_pct":  "6.608425089468678",
	},
}

// TestDefaultSeedPins runs every workload untraced at the default seed and
// checks the result line and the pinned digests and counts.
func TestDefaultSeedPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, passes, err := runWorkload(context.Background(), name, 1, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", m.Name, v)
				}
			}
			checkPins(t, name, pinned(passes[0]))
		})
	}
}

// TestTracedRun runs fleet-wide traced: tracing must not perturb the
// simulation, and every per-layer metric must be printed.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	res, passes, err := runWorkload(context.Background(), "fleet-wide", 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed its checks: %+v", res)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, k := range []string{"kernel.dispatches", "kernel.syscalls", "fleet.sim_instr"} {
		if got, want := res.Metrics[k].Value, passes[0].exact[k]; got != want {
			t.Errorf("traced %s = %v, untraced %v", k, got, want)
		}
	}
	for _, k := range []string{"cpu_share.cpu", "kernel.boot_us_per_device", "fleet.shard_run_s", "sim.overhead_mpu_pct"} {
		if res.Metrics[k].Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
		}
	}
	var sum float64
	for _, m := range profileModules {
		sum += res.Metrics["cpu_share."+m].Value
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("cpu shares sum to %v", sum)
	}
}

// pinned renders a pass's digest and exact counts as strings.
func pinned(p *passResult) map[string]string {
	out := map[string]string{"digest": p.digest}
	for k, v := range p.exact {
		out[k] = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return out
}

func checkPins(t *testing.T, name string, got map[string]string) {
	t.Helper()
	want := pins[name]
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: %s = %q, pinned %q", name, k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d pinned values, run produced %d", name, len(want), len(got))
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"amuletiso/internal/cpu.(*CPU).Step":         "cpu",
		"amuletiso/internal/fleetd.(*Server).runJob": "fleetd",
		"amuletiso/internal/abi.SymGlobal":           "other",
		"runtime.mallocgc":                           "runtime",
		"encoding/json.Marshal":                      "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestGrowing(t *testing.T) {
	steady := []float64{0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0}
	rising := []float64{0, 1, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7}
	if growing(steady) {
		t.Error("steady backlog flagged as growing")
	}
	if !growing(rising) {
		t.Error("rising backlog not flagged")
	}
}

func TestDaemonScheduleIsSeeded(t *testing.T) {
	render := func(jobs []daemonJob) string {
		var sb strings.Builder
		for _, j := range jobs {
			b, err := json.Marshal(j.spec)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%d %s\n", j.at, b)
		}
		return sb.String()
	}
	a, b, c := render(daemonSchedule(1)), render(daemonSchedule(1)), render(daemonSchedule(2))
	if a != b {
		t.Error("the same seed gave different schedules")
	}
	if a == c {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(daemonSchedule(1)); n < 100 {
		t.Errorf("%d jobs per pass; p90 needs 10 samples beyond it", n)
	}
}
