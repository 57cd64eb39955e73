package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"amuletiso/internal/obs"
)

// span is one timed call from the benchmark into a module's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 = root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, fn func() error) (float64, error) {
	id := t.start(name, parent)
	s := time.Now()
	err := fn()
	d := time.Since(s).Seconds()
	t.end(id)
	return d, err
}

// write stores the spans, with each span's self time (its duration minus
// the time its children cover), as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - child[t.spans[i].ID]
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// counterNames maps per-layer count metrics to the obs.Default series they
// are read from.
var counterNames = map[string]string{
	"aft.firmware_builds":     obs.MetricFirmwareBuilds,
	"kernel.template_builds":  obs.MetricTemplateBuilds,
	"fleet.cache_hits":        obs.MetricBuildCacheHits,
	"kernel.dispatches":       obs.MetricDispatches,
	"kernel.syscalls":         obs.MetricSyscalls,
	"kernel.restarts":         obs.MetricRestarts,
	"kernel.watchdog_trips":   obs.MetricWatchdogTrips,
	"fleet.sim_instr":         obs.MetricInstrSimulated,
	"jit.blocks_compiled":     obs.MetricJITBlocksCompiled,
	"jit.compile_ns":          obs.MetricJITCompileNS,
	"mem.cert_drops":          obs.MetricCertDrops,
	"mem.watch_invalidations": obs.MetricWatchInval,
	"mem.cow_pages_dirtied":   obs.MetricPagesDirtied,
	"mem.cow_pages_recycled":  obs.MetricPagesRecycled,
	"power.brownouts":         obs.MetricBrownouts,
	"power.reboots":           obs.MetricReboots,
	"fleetd.shards_merged":    "amulet_fleetd_shards_merged_total",
}

// counters is a snapshot of the obs.Default series the benchmark reads.
type counters map[string]uint64

// readCounters snapshots the process-wide obs counters. Series that are
// not registered yet read 0.
func readCounters() counters {
	c := counters{}
	for k, name := range counterNames {
		if m := obs.Default.Lookup(name); m != nil {
			c[k] = m.Value()
		}
	}
	if v := obs.Default.LookupVec(obs.MetricFaults); v != nil {
		c["kernel.faults"] = v.Total()
	}
	if v := obs.Default.LookupVec(obs.MetricJITDeopts); v != nil {
		for _, r := range deoptReasons {
			c["jit.deopts."+r] = v.Value(r)
		}
	}
	return c
}

// sub returns the per-series growth from before to c.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// memSnapshot is the part of runtime.MemStats a pass reports.
type memSnapshot struct {
	totalAlloc, mallocs, pauseNs uint64
	numGC                        uint32
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// profiler sums CPU profile samples by module over the stretches of time
// between start and stop calls.
type profiler struct {
	buf    bytes.Buffer
	counts map[string]float64
}

func newProfiler() *profiler { return &profiler{counts: map[string]float64{}} }

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	return nil
}

// stop ends the current stretch and adds its samples, attributed to the
// module of each sample's leaf frame (self time).
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return moduleSamples(p.buf.Bytes(), p.counts)
}

// shares returns each module's share of all samples.
func (p *profiler) shares() map[string]float64 {
	var total float64
	for _, c := range p.counts {
		total += c
	}
	out := map[string]float64{}
	for m, c := range p.counts {
		out[m] = ratio(c, total)
	}
	return out
}

// moduleOf maps a fully qualified Go function name to a profile module.
func moduleOf(fn string) string {
	const prefix = "amuletiso/internal/"
	if rest, ok := strings.CutPrefix(fn, prefix); ok {
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		for _, m := range profileModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") ||
		strings.HasPrefix(fn, "internal/runtime") {
		return "runtime"
	}
	return "other"
}

// moduleSamples decodes a gzipped pprof CPU profile just far enough to add
// its sample counts to counts by the module of each sample's leaf function.
// Only the standard library is available, so this reads the protobuf wire
// format directly: Profile{2: Sample{1: location ids, 2: values}, 4: Location{1:
// id, 4: Line{1: function id}}, 5: Function{1: id, 2: name index}, 6:
// string table}.
func moduleSamples(gz []byte, counts map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], count: int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if fn != 0 {
						return nil // the first Line is the innermost (inlined) frame
					}
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		mod := "other"
		if idx, ok := funcName[locFunc[s.loc]]; ok && int(idx) < len(strs) {
			mod = moduleOf(strs[idx])
		}
		counts[mod] += float64(s.count)
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data set) or not.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
