package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/fleet"
	"amuletiso/internal/fleetd"
	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
	"amuletiso/internal/power"
)

// Open-loop shape of daemon-power. One pass submits daemonJobs jobs at a
// fixed mean rate of one per daemonGap, each gap drawn uniformly from
// [0.5, 1.5) × daemonGap. At the seed commit a job takes about 45 ms on two
// workers, so the daemon is about half busy.
const (
	daemonJobs   = 160
	daemonGap    = 90 * time.Millisecond
	daemonShards = 4
	// verifyEvery picks the jobs whose HTTP reports are re-derived with
	// fleet.Runner.Run after timing stops.
	verifyEvery = 10
)

// daemonJob is one scheduled submission: its due time after the pass
// starts and its spec.
type daemonJob struct {
	at   time.Duration
	spec fleetd.JobSpec
}

// daemonSchedule derives a pass's arrival schedule and job specs from the
// seed. Even jobs run on a harvest trace, odd jobs take forced brownouts;
// every job injects periodic faults and is cut into shards.
func daemonSchedule(seed uint64) []daemonJob {
	traces := []string{"solar:0.5", "kinetic:1", "recorded:0.5"}
	maxFaults, backoff := 3, uint64(1000)
	r := seed
	next := func(n uint64) uint64 { r = splitmix64(r); return r % n }
	jobs := make([]daemonJob, daemonJobs)
	var at time.Duration
	for i := range jobs {
		at += time.Duration(float64(daemonGap) * (0.5 + float64(next(1<<20))/(1<<20)))
		spec := fleetd.JobSpec{
			Name: fmt.Sprintf("bench-job-%d", i), Mode: "mpu",
			DurationMS: 10_000, Devices: 16, Seed: 1 + next(1<<32),
			FaultEveryMS: 1500 + 500*next(8), FaultApp: int(next(uint64(len(apps.Suite())))),
			MaxFaults: &maxFaults, BackoffMS: &backoff,
			ShardDevices: 16 / daemonShards,
		}
		if i%2 == 0 {
			spec.PowerTrace = traces[next(uint64(len(traces)))]
		} else {
			spec.BrownoutEveryMS = 2000 + 500*next(9)
			spec.BrownoutOffMS = 500
		}
		jobs[i] = daemonJob{at: at, spec: spec}
	}
	return jobs
}

// scenarioOf is the fleet scenario a job spec describes — what fleetd must
// run for it. The daemon's report for the job must byte-match this
// scenario's fleet.Runner.Run report.
func scenarioOf(s fleetd.JobSpec) fleet.Scenario {
	return fleet.Scenario{
		Name: s.Name, Apps: apps.Suite(), Mode: cc.ModeMPU,
		DurationMS: s.DurationMS, Devices: s.Devices, Seed: s.Seed,
		FaultEveryMS: s.FaultEveryMS, FaultApp: s.FaultApp,
		PowerTrace: s.PowerTrace, BrownoutEveryMS: s.BrownoutEveryMS, BrownoutOffMS: s.BrownoutOffMS,
		Policy: &kernel.RestartPolicy{MaxFaults: *s.MaxFaults, BackoffMS: *s.BackoffMS},
	}
}

// daemon is one running fleetd instance behind a loopback HTTP server and
// its single client. The client speaks unencrypted HTTP/2, so every submit,
// stream and report fetch shares one connection.
type daemon struct {
	srv    *fleetd.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	dir    string
	conns  atomic.Int64
}

// startDaemon starts fleetd on runner with a fresh state dir and makes one
// request, so the connection is up.
func startDaemon(ctx context.Context, runner *fleet.Runner) (*daemon, error) {
	root := filepath.Join(scratchDir, "daemon-state")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "pass-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, srv: fleetd.NewServer(dir), served: make(chan error, 1)}
	d.srv.Runner = runner
	d.srv.ShardDevices = 16 / daemonShards
	d.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Stop()
		os.RemoveAll(dir)
		return nil, err
	}
	d.hs = &http.Server{
		Handler:   d.srv.Handler(),
		Protocols: new(http.Protocols),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				d.conns.Add(1)
			}
		},
	}
	d.hs.Protocols.SetHTTP1(true)
	d.hs.Protocols.SetUnencryptedHTTP2(true)
	go func() { d.served <- d.hs.Serve(ln) }()
	tp := &http.Transport{Protocols: new(http.Protocols)}
	tp.Protocols.SetUnencryptedHTTP2(true)
	d.client = &http.Client{Transport: tp}
	d.base = "http://" + ln.Addr().String()
	if _, err := d.get(ctx, "/jobs"); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the client's connection, shuts the HTTP server and the
// scheduler down, waits for both, and removes the state dir.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Stop()
	os.RemoveAll(d.dir)
}

// get fetches a path and returns the body of a 200 response.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// submit posts a job and returns its id; a refusal is an error.
func (d *daemon) submit(ctx context.Context, spec fleetd.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("submit: %s: %w", resp.Status, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit refused: %s: %s", resp.Status, out.Error)
	}
	return out.ID, nil
}

// await follows a job's NDJSON stream to its terminal line and returns the
// terminal state and error.
func (d *daemon) await(ctx context.Context, id string) (state, msg string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+id+"/stream", nil)
	if err != nil {
		return "", "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", "", fmt.Errorf("stream %s: %w", id, err)
		}
		state, msg = ev.State, ev.Error
	}
	if err := sc.Err(); err != nil {
		return "", "", fmt.Errorf("stream %s: %w", id, err)
	}
	return state, msg, nil
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == fleetd.StateDone || state == fleetd.StateFailed || state == fleetd.StateCancelled
}

// jobState reads a job's state from GET /jobs/{id}.
func (d *daemon) jobState(ctx context.Context, id string) (state, msg string, err error) {
	b, err := d.get(ctx, "/jobs/"+id)
	if err != nil {
		return "", "", err
	}
	var v fleetd.JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return "", "", fmt.Errorf("job %s: %w", id, err)
	}
	return v.State, v.Error, nil
}

// jobRecord is the client's view of one job.
type jobRecord struct {
	lag, submit, fetch float64 // seconds
	submitted, done    time.Time
	latency            float64 // due to report fetched, seconds
	err                error
	streamCut          bool // the stream ended without a terminal line

	// The fetched report's digest and simulated totals; the bytes are kept
	// only for the jobs verify re-derives.
	report             []byte
	digest             string
	cycles, dispatches float64
	hist               obs.CycleHist
}

// daemonWorkload submits a seeded open-loop schedule of fleet jobs to fleetd
// over HTTP each pass.
type daemonWorkload struct {
	jobs   []daemonJob
	runner *fleet.Runner
	d      *daemon // the set-up daemon, used by the first pass

	job0 []byte // the last pass's report for job 0
}

func newDaemonWorkload(seed uint64) *daemonWorkload {
	return &daemonWorkload{jobs: daemonSchedule(seed)}
}

func (w *daemonWorkload) setup(ctx context.Context, tr *tracer) (map[string]float64, error) {
	w.runner = &fleet.Runner{Workers: workers, Cache: fleet.NewBuildCache()}
	list := apps.Suite()
	build, err := tr.timed("aft.BuildCache.Get", 0, func() error {
		_, err := w.runner.Cache.Get(list, cc.ModeMPU)
		return err
	})
	if err != nil {
		return nil, err
	}
	tmpl, err := tr.timed("fleet.BuildCache.Template", 0, func() error {
		_, err := w.runner.Cache.Template(list, cc.ModeMPU)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.d, err = startDaemon(ctx, w.runner)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"aft.build_s": build, "kernel.template_s": tmpl}, nil
}

func (w *daemonWorkload) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	d := w.d
	w.d = nil
	if d == nil {
		var err error
		if d, err = startDaemon(ctx, w.runner); err != nil {
			return nil, err
		}
	}
	recs := make([]jobRecord, len(w.jobs))
	backlog := make([]float64, len(w.jobs))
	var completed atomic.Int64
	var wg sync.WaitGroup
	root := tr.start("fleetd.open_loop", 0)
	t0 := time.Now().Add(10 * time.Millisecond)
	for i, job := range w.jobs {
		due := t0.Add(job.at)
		time.Sleep(time.Until(due))
		rec := &recs[i]
		rec.lag = time.Since(due).Seconds()
		backlog[i] = float64(int64(i) - completed.Load())
		var id string
		var err error
		rec.submit, err = tr.timed("fleetd.POST /jobs", root, func() error {
			id, err = d.submit(ctx, job.spec)
			return err
		})
		rec.submitted = time.Now()
		if err != nil {
			rec.err = err
			completed.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer completed.Add(1)
			w.follow(ctx, tr, root, d, id, due, rec, i%verifyEvery == 0)
		}()
	}
	wg.Wait()
	tr.end(root)
	wall := time.Since(t0).Seconds()

	p := &passResult{wall: wall, attempted: len(w.jobs), exact: map[string]float64{}, layer: map[string]float64{}}
	var all strings.Builder
	var hist obs.CycleHist
	var cycles, dispatches float64
	var submits, waits, runs, fetches, lags []float64
	var prevDone time.Time
	streamCuts := 0
	for i, rec := range recs {
		if rec.streamCut {
			streamCuts++
		}
		lags = append(lags, rec.lag)
		submits = append(submits, rec.submit)
		if rec.err != nil {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("job %d: %v", i, rec.err))
			continue
		}
		// Jobs run one at a time in submission order, so a job starts when
		// it was submitted or when the job before it finished.
		start := rec.submitted
		if prevDone.After(start) {
			start = prevDone
		}
		prevDone = rec.done
		waits = append(waits, start.Sub(rec.submitted).Seconds())
		runs = append(runs, rec.done.Sub(start).Seconds())
		p.busy += runs[len(runs)-1]
		fetches = append(fetches, rec.fetch)
		p.latencies = append(p.latencies, rec.latency)
		cycles += rec.cycles
		dispatches += rec.dispatches
		hist.Merge(&recs[i].hist)
		all.WriteString(rec.digest)
	}
	p.devices = float64(len(runs) * w.jobs[0].spec.Devices)
	p.digest = digest([]byte(all.String()))
	p.exact["sim.cycles_per_dispatch"] = ratio(cycles, dispatches)
	p.exact["sim.latency_p99_cycles"] = float64(hist.Quantile(0.99))
	p.layer["fleetd.submit_s"] = mean(submits)
	p.layer["fleetd.queue_wait_s"] = mean(waits)
	p.layer["fleetd.run_s"] = mean(runs)
	p.layer["fleetd.report_fetch_s"] = mean(fetches)
	p.layer["fleetd.state_bytes_written"] = float64(dirSize(d.dir))
	p.layer["bench.generator_lag_s"] = nearestRank(lags, 1)
	p.layer["fleetd.streams_without_terminal_line"] = float64(streamCuts)
	if n := len(p.latencies); n < 100 {
		p.problems = append(p.problems, fmt.Sprintf("only %d latency samples; p90 needs at least 100", n))
	}
	if growing(backlog) {
		p.problems = append(p.problems, "the job queue was still growing when the schedule ended")
		p.failed = p.attempted
	}
	if c := d.conns.Load(); c != 1 {
		p.problems = append(p.problems, fmt.Sprintf("client used %d connections, want 1", c))
	}
	w.job0 = recs[0].report
	p.after = func(p *passResult) {
		addExactCounters(p)
		d.stop()
		w.verify(ctx, recs, p)
	}
	return p, nil
}

// follow waits for one job to finish, fetches its report and records the
// job's due-to-report latency.
func (w *daemonWorkload) follow(ctx context.Context, tr *tracer, parent int, d *daemon, id string, due time.Time, rec *jobRecord, keep bool) {
	var state, msg string
	_, err := tr.timed("fleetd.GET stream", parent, func() error {
		var err error
		state, msg, err = d.await(ctx, id)
		return err
	})
	rec.done = time.Now()
	if err == nil && !terminal(state) {
		// The stream may close on the job's terminal transition before the
		// terminal line is appended; the job API has the final state.
		rec.streamCut = true
		state, msg, err = d.jobState(ctx, id)
	}
	switch {
	case err != nil:
		rec.err = err
		return
	case state != fleetd.StateDone:
		rec.err = fmt.Errorf("job %s ended %s: %s", id, state, msg)
		return
	}
	rec.fetch, err = tr.timed("fleetd.GET report", parent, func() error {
		var err error
		rec.report, err = d.get(ctx, "/jobs/"+id+"/report")
		return err
	})
	rec.latency = time.Since(due).Seconds()
	if err != nil {
		rec.err = err
		return
	}
	var rep struct {
		TotalCycles     uint64        `json:"totalCycles"`
		TotalDispatches uint64        `json:"totalDispatches"`
		Latency         obs.CycleHist `json:"latency"`
	}
	if err := json.Unmarshal(rec.report, &rep); err != nil {
		rec.err = fmt.Errorf("job %s report: %w", id, err)
		return
	}
	rec.digest = digest(rec.report)
	rec.cycles, rec.dispatches, rec.hist = float64(rep.TotalCycles), float64(rep.TotalDispatches), rep.Latency
	if !keep {
		rec.report = nil
	}
}

// verify re-derives a sample of the pass's reports with fleet.Runner.Run
// and byte-compares them with what the daemon served.
func (w *daemonWorkload) verify(ctx context.Context, recs []jobRecord, p *passResult) {
	for i := 0; i < len(recs); i += verifyEvery {
		if recs[i].err != nil {
			continue
		}
		rep, err := w.runner.Run(ctx, scenarioOf(w.jobs[i].spec))
		var want []byte
		if err == nil {
			want, err = reportJSON(rep)
		}
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("job %d reference run: %v", i, err))
			p.failed++
			continue
		}
		if !bytes.Equal(want, recs[i].report) {
			p.problems = append(p.problems, fmt.Sprintf("job %d: HTTP report differs from fleet.Runner.Run", i))
			p.failed++
		}
	}
}

func (w *daemonWorkload) probe(ctx context.Context, tr *tracer, _ *passResult, vals map[string]float64) error {
	sc := scenarioOf(w.jobs[0].spec)
	if err := probeLifecycle(tr, w.runner.Cache, sc, sc.Devices, vals); err != nil {
		return err
	}
	if err := probeShards(ctx, tr, w.runner, sc, digest(w.job0), vals); err != nil {
		return err
	}
	var rep struct {
		TotalCycles uint64 `json:"totalCycles"`
	}
	if err := json.Unmarshal(w.job0, &rep); err != nil {
		return err
	}
	if err := probeOverhead(ctx, w.runner, sc, float64(rep.TotalCycles), vals); err != nil {
		return err
	}
	var harvest float64
	var devices int
	for _, job := range w.jobs {
		if job.spec.PowerTrace == "" {
			continue
		}
		prof, err := power.Parse(job.spec.PowerTrace)
		if err != nil {
			return err
		}
		for i := 0; i < job.spec.Devices; i++ {
			t := prof.Trace(fleet.DeviceSeed(job.spec.Seed, i))
			d, _ := tr.timed("power.Trace.HarvestRangePJ", 0, func() error {
				t.HarvestRangePJ(0, job.spec.DurationMS)
				return nil
			})
			harvest += d
			devices++
		}
	}
	vals["power.harvest_us_per_device"] = 1e6 * ratio(harvest, float64(devices))
	return nil
}

// minPasses is 1: one pass is a whole open-loop schedule, and its reports
// are checked against fleet.Runner.Run.
func (w *daemonWorkload) minPasses() int { return 1 }

func (w *daemonWorkload) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// growing reports whether the backlog seen at each submission still rose
// at the end of the schedule: the last quarter's mean backlog exceeds the
// first half's by more than two jobs.
func growing(backlog []float64) bool {
	n := len(backlog)
	if n < 4 {
		return false
	}
	return mean(backlog[3*n/4:]) > mean(backlog[:n/2])+2
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // a file renamed away mid-walk is not state
		}
		if info, ierr := e.Info(); ierr == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
