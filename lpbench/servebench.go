package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// serveSize fixes the serve-mixed workload's dimensions.
type serveSize struct {
	cells    []cellSpec // pre-populated in the store log
	requests int        // requests per pass
	setups   int        // server starts measured for setup_s
	probes   int        // calls timed per layer probe
	fresh    cellSpec   // the cell shape fresh requests simulate
}

func serveSizeFor(tiny bool) serveSize {
	pols := []string{"Linux4K", "THP"}
	wl := specNames(workloads.Suite())
	fresh := cellSpec{"A", "EP.C", "Linux4K", sim.ModeAnalytic, 0.002}
	if tiny {
		return serveSize{crossCells([]string{"A", "B"}, wl[:2], pols, sim.ModeAnalytic, 0.002), 400, 3, 20, fresh}
	}
	// The fig1 cells (the suite under Linux4K and THP on both machines)
	// at a small analytic scale.
	return serveSize{crossCells([]string{"A", "B"}, wl, pols, sim.ModeAnalytic, 0.01), 12000, 51, 2000, fresh}
}

// The traffic mix, per block of mixBlock requests: mixSweeps /v1/sweep
// batches over cached cells and mixFresh /v1/run cells with unseen
// seeds, the rest cached /v1/run reads. The slow kinds stay below 1% of
// requests together, so req_p99_ms falls inside the cached-read
// distribution.
const (
	mixBlock   = 800
	mixSweeps  = 4
	mixFresh   = 1
	sweepWidth = 2 // workloads per sweep: × 2 machines × 2 policies = 8 cells
	clients    = 2 // closed-loop clients, one per host CPU
)

const (
	kindRead = iota
	kindSweep
	kindFresh
)

var kindNames = [...]string{"run-cached", "sweep-cached", "run-fresh"}

// op is one request of the traffic and the answer it must get.
type op struct {
	kind int
	path string
	body []byte
	// want are the direct results the answer must equal, in answer
	// order; empty for fresh cells, which are checked after the pass.
	want []sim.Result
	// fresh is the cell and engine seed of a fresh request.
	fresh     cellSpec
	freshSeed uint64
}

func runRequest(c cellSpec, engineSeed uint64) serve.RunRequest {
	return serve.RunRequest{Machine: c.Machine, Workload: c.Workload, Policy: c.Policy,
		Seed: engineSeed, Mode: c.Mode.String(), Scale: c.Scale}
}

// runnerRequest is the request the daemon builds for runRequest(c, seed),
// with the same runcache key.
func runnerRequest(c cellSpec, engineSeed uint64) runner.Request {
	cfg := c.config(engineSeed)
	return runner.Request{Machine: c.Machine, Workload: c.Workload, Policy: c.Policy, Seed: engineSeed, Cfg: &cfg}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types are plain structs
	}
	return b
}

// traffic builds pass number passIdx of the mix: deterministic in the
// seed, with fresh seeds that no earlier pass used.
func traffic(sz serveSize, seed uint64, passIdx int, direct []sim.Result) []op {
	rng := rand.New(rand.NewPCG(seed, uint64(passIdx)))
	eseed := simSeed(seed)
	ops := make([]op, sz.requests)
	fresh := 0
	for i := range ops {
		switch slot := i % mixBlock; {
		case slot < mixSweeps:
			ops[i] = sweepOp(sz.cells, rng, eseed, direct)
		case slot < mixSweeps+mixFresh:
			fseed := 1<<40 + seed<<20 + uint64(passIdx*sz.requests+fresh)
			fresh++
			ops[i] = op{kind: kindFresh, path: "/v1/run", body: mustJSON(runRequest(sz.fresh, fseed)),
				fresh: sz.fresh, freshSeed: fseed}
		default:
			k := rng.IntN(len(sz.cells))
			ops[i] = op{kind: kindRead, path: "/v1/run", body: mustJSON(runRequest(sz.cells[k], eseed)),
				want: []sim.Result{direct[k]}}
		}
	}
	// Spread the slow kinds over the pass instead of leading each block.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// sweepOp asks for sweepWidth workloads on both machines under both
// policies. The pre-populated cells are machine-major, then workload,
// then policy, so the sweep's answer order maps onto them directly.
func sweepOp(cells []cellSpec, rng *rand.Rand, eseed uint64, direct []sim.Result) op {
	perMachine := len(cells) / 2
	nwl := perMachine / 2
	first := rng.IntN(nwl - sweepWidth + 1)
	req := serve.SweepRequest{Machines: []string{"A", "B"}, Policies: []string{"Linux4K", "THP"},
		Seeds: []uint64{eseed}, Mode: cells[0].Mode.String(), Scale: cells[0].Scale}
	var want []sim.Result
	for m := 0; m < 2; m++ {
		for w := first; w < first+sweepWidth; w++ {
			for p := 0; p < 2; p++ {
				want = append(want, direct[m*perMachine+w*2+p])
			}
		}
	}
	for w := first; w < first+sweepWidth; w++ {
		req.Workloads = append(req.Workloads, cells[w*2].Workload)
	}
	return op{kind: kindSweep, path: "/v1/sweep", body: mustJSON(req), want: want}
}

// do sends one request and checks its answer: a transport error, a
// non-2xx status (429 included) or an answer that differs from the
// direct results is a failure. A fresh answer's result is returned for
// the check after the pass.
func do(hc *http.Client, base string, o op) (fresh sim.Result, err error) {
	resp, err := hc.Post(base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return fresh, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fresh, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fresh, fmt.Errorf("%s: status %d: %s", o.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	var got []sim.Result
	if o.kind == kindSweep {
		var sr serve.SweepResponse
		err = json.Unmarshal(body, &sr)
		got = sr.Results
	} else {
		var rr serve.RunResponse
		err = json.Unmarshal(body, &rr)
		got = []sim.Result{rr.Result}
		fresh = rr.Result
	}
	if err != nil {
		return fresh, fmt.Errorf("%s: decode answer: %w", o.path, err)
	}
	if o.kind == kindFresh {
		return fresh, checkResult(fresh)
	}
	if len(got) != len(o.want) {
		return fresh, fmt.Errorf("%s: %d results, want %d", o.path, len(got), len(o.want))
	}
	for i := range got {
		if got[i] != o.want[i] {
			return fresh, fmt.Errorf("%s: result %d differs from the direct result", o.path, i)
		}
	}
	return fresh, nil
}

// servePass is one closed-loop pass of the traffic over clients.
type servePass struct {
	wallS   float64
	latMs   []float64
	failed  int
	freshOK []freshAnswer
}

type freshAnswer struct {
	cell cellSpec
	seed uint64
	res  sim.Result
}

func runServePass(hc *http.Client, base string, ops []op, tr *tracer, log func(string, ...any)) servePass {
	var (
		mu sync.Mutex
		p  = servePass{latMs: make([]float64, len(ops))}
		wg sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				s := time.Now()
				res, err := do(hc, base, ops[i])
				e := time.Now()
				p.latMs[i] = float64(e.Sub(s).Nanoseconds()) / 1e6
				tr.add(kindNames[ops[i].kind], "", 0, i+1, s, e)
				mu.Lock()
				if err != nil {
					log("request %d (%s): %v", i, kindNames[ops[i].kind], err)
					p.failed++
				} else if ops[i].kind == kindFresh {
					p.freshOK = append(p.freshOK, freshAnswer{ops[i].fresh, ops[i].freshSeed, res})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wallS = time.Since(t0).Seconds()
	return p
}

// daemon is a started server listening on loopback.
type daemon struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

// startDaemon opens the server on the cache log and returns once the
// first healthz answers, with the time that took: serve.New (which
// recovers the log) through the first healthy answer.
func startDaemon(hc *http.Client, cachePath string) (*daemon, float64, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{Workers: 1, CachePath: cachePath})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			return nil, 0, errors.Join(errors.New("daemon not healthy after 10s"), err, d.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for Serve to return.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// prepopulate simulates the cells directly and writes them to a new
// cache log at path, returning the direct results.
func prepopulate(cells []cellSpec, seed uint64, path string) (pass, error) {
	p := runPass(cells, seed, nil)
	st, err := runcache.OpenStore(path)
	if err != nil {
		return p, err
	}
	for i, c := range cells {
		if p.cells[i].err != nil {
			continue
		}
		if err := st.Put(runcache.KeyOf(runnerRequest(c, simSeed(seed))), p.cells[i].res); err != nil {
			st.Close()
			return p, err
		}
	}
	return p, st.Close()
}

// runServeMixed pre-populates a store log, measures the daemon's start
// over it, and drives the traffic mix in closed-loop passes.
func runServeMixed(opts options) (outcome, error) {
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(opts.workDir, "serve-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	sz := serveSizeFor(opts.tiny)
	var o outcome
	cachePath := filepath.Join(dir, "cache.log")
	pre, err := prepopulate(sz.cells, opts.seed, cachePath)
	if err != nil {
		return o, err
	}
	o.attempted += len(sz.cells)
	if o.failed += pre.check(nil, logf); o.failed > 0 {
		return o, fmt.Errorf("%d pre-populated cells failed", o.failed)
	}
	direct := make([]sim.Result, len(sz.cells))
	for i := range direct {
		direct[i] = pre.cells[i].res
	}

	if opts.trace {
		t0 := time.Now()
		st, err := runcache.OpenStore(cachePath)
		if err != nil {
			return o, err
		}
		o.set("runcache.recover_s", time.Since(t0).Seconds())
		o.set("runcache.records", float64(st.Recovered().Cells))
		if err := st.Close(); err != nil {
			return o, err
		}
	}

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	var d *daemon
	debug.FreeOSMemory() // the pre-population's garbage would be collected during the starts
	setups := make([]float64, sz.setups)
	for i := range setups {
		if d != nil {
			if err := d.stop(); err != nil {
				return o, err
			}
		}
		if d, setups[i], err = startDaemon(hc, cachePath); err != nil {
			return o, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	var passes []servePass
	var tr *tracer
	var ms0, ms1 runtime.MemStats
	var ph0, ph1 sim.PhaseWall
	start := time.Now()
	for i := 0; ; i++ {
		ops := traffic(sz, opts.seed, i, direct)
		debug.FreeOSMemory()
		traced := opts.trace && i == 1
		if traced {
			tr = newTracer()
			sim.SetPhaseTracking(true)
			ph0 = sim.PhaseWallSnapshot()
			runtime.ReadMemStats(&ms0)
		}
		p := runServePass(hc, d.base, ops, tr, logf)
		if traced {
			runtime.ReadMemStats(&ms1)
			ph1 = sim.PhaseWallSnapshot()
			sim.SetPhaseTracking(false)
		}
		passes = append(passes, p)
		o.attempted += sz.requests
		o.failed += p.failed
		if opts.trace {
			if traced {
				break
			}
			continue
		}
		if time.Since(start).Seconds()+p.wallS > opts.seconds {
			break
		}
	}

	if opts.trace {
		if err := serveProbes(&o, hc, d, sz, opts.seed); err != nil {
			return o, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return o, err
	}

	// Fresh answers are checked against direct simulation after the
	// daemon stops, outside every timed pass.
	for _, p := range passes {
		for _, f := range p.freshOK {
			r := runCell(f.cell, f.seed, nil, 0)
			if r.err != nil || r.res != f.res {
				logf("fresh cell %s seed %d: answer differs from the direct result (%v)", f.cell.key(), f.seed, r.err)
				o.failed++
			}
		}
	}

	if opts.trace {
		un, tp := passes[0], passes[1]
		o.set("trace.overhead_frac", (tp.wallS-un.wallS)/un.wallS)
		o.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		o.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		o.set("sim.alloc_s", ph1.AllocSeconds-ph0.AllocSeconds)
		o.set("sim.price_s", ph1.PriceSeconds-ph0.PriceSeconds)
		o.set("sim.merge_s", ph1.MergeSeconds-ph0.MergeSeconds)
		o.set("sim.daemon_s", ph1.DaemonSeconds-ph0.DaemonSeconds)
		gold := pre
		if opts.seed != goldenSeed {
			gold = runPass(sz.cells, goldenSeed, nil)
			o.attempted += len(sz.cells)
			o.failed += gold.check(nil, logf)
		}
		changed, err := cellsChanged("serve-mixed", gold.digests())
		if err != nil {
			return o, err
		}
		o.set("sim.cells_changed", float64(changed))
		path, err := tr.write(filepath.Join(opts.workDir, "trace"), "serve-mixed", opts.seed)
		if err != nil {
			return o, err
		}
		logf("%d spans written to %s; %d cells changed against golden.json", len(tr.spans), path, changed)
		return o, nil
	}

	// Every figure is a median over passes, so one pass disturbed by the
	// host moves none of them.
	walls := make([]float64, len(passes))
	rates := make([]float64, len(passes))
	p50s := make([]float64, len(passes))
	p99s := make([]float64, len(passes))
	for i, p := range passes {
		walls[i], rates[i] = p.wallS, float64(sz.requests)/p.wallS
		p50s[i], p99s[i] = quantile(p.latMs, 0.50), quantile(p.latMs, 0.99)
	}
	o.set("pass_s", median(walls))
	o.set("setup_s", median(setups))
	o.set("rss_peak_mb", rssPeakMB())
	o.set("req_per_s", median(rates))
	o.set("req_p50_ms", median(p50s))
	o.set("req_p99_ms", median(p99s))
	logf("%d passes of %d requests: %.3v s", len(passes), sz.requests, walls)
	return o, nil
}

// serveProbes times single calls into the serve and runcache layers on
// the warm daemon, and reads its counters.
func serveProbes(o *outcome, hc *http.Client, d *daemon, sz serveSize, seed uint64) error {
	sched := d.srv.Scheduler()
	tot := sched.Totals()
	o.set("runcache.runs", float64(tot.Runs))
	o.set("runcache.hit_ratio", float64(tot.Requested-tot.Runs)/float64(tot.Requested))
	resp, err := hc.Get(d.base + "/v1/stats")
	if err != nil {
		return err
	}
	var stats serve.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	o.set("serve.shed", float64(stats.Shed))

	cell := sz.cells[0]
	body := mustJSON(runRequest(cell, simSeed(seed)))
	h := d.srv.Handler()
	us, err := timeMedian(sz.probes, func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("serve.handler_us", us)

	reqs := []runner.Request{runnerRequest(cell, simSeed(seed))}
	if us, err = timeMedian(sz.probes, func() error {
		_, st, err := sched.Results(reqs)
		if err == nil && st.Runs != 0 {
			err = errors.New("runcache probe: cached cell was simulated again")
		}
		return err
	}); err != nil {
		return err
	}
	o.set("runcache.hit_us", us)

	scratch, err := runcache.OpenStore(filepath.Join(filepath.Dir(d.srv.Store().Path()), "put.log"))
	if err != nil {
		return err
	}
	n := 0
	us, err = timeMedian(sz.probes, func() error {
		n++
		return scratch.Put(runcache.KeyOf(runnerRequest(cell, uint64(n))), sim.Result{RuntimeSeconds: 1})
	})
	if err = errors.Join(err, scratch.Close()); err != nil {
		return err
	}
	o.set("runcache.put_us", us)
	return nil
}
