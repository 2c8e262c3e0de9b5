package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// cellSpec is one simulation cell of a workload's fixed cell set.
type cellSpec struct {
	Machine, Workload, Policy string
	Mode                      sim.Mode
	Scale                     float64
}

func (c cellSpec) key() string {
	return fmt.Sprintf("%s/%s/%s/%s/%g", c.Machine, c.Workload, c.Policy, c.Mode, c.Scale)
}

// simSeed maps the benchmark's --seed to the engine seed. The engine
// treats seed 0 as "use the default", so every input seed is shifted by
// one to keep --seed 0 distinct.
func simSeed(seed uint64) uint64 { return seed + 1 }

// config is the engine configuration of the cell at an engine seed: one
// pricing worker, so cells run one at a time on one CPU and a pass's
// wall time does not depend on how the host schedules borrowed workers.
func (c cellSpec) config(engineSeed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mode = c.Mode
	cfg.WorkScale = c.Scale
	cfg.Seed = engineSeed
	cfg.Workers = 1
	return cfg
}

func crossCells(machines, wl, policies []string, mode sim.Mode, scale float64) []cellSpec {
	var out []cellSpec
	for _, m := range machines {
		for _, w := range wl {
			for _, p := range policies {
				out = append(out, cellSpec{m, w, p, mode, scale})
			}
		}
	}
	return out
}

func specNames(specs []workloads.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// churnCells: machine A, analytic. WC.churn's teardown is the only
// event-driven free path (vm.Unmap → mem.FreeRun) in the suite; CG.shift
// adds hot-set shift events under the four policies that react to them.
func churnCells(tiny bool) []cellSpec {
	shift := []string{"Linux4K", "THP", "CarrefourLP", "TridentLP"}
	if tiny {
		return crossCells([]string{"A"}, []string{"CG.shift"}, shift[:2], sim.ModeAnalytic, 0.02)
	}
	return append(crossCells([]string{"A"}, []string{"WC.churn"}, []string{"THP"}, sim.ModeAnalytic, 0.3),
		crossCells([]string{"A"}, []string{"CG.shift"}, shift, sim.ModeAnalytic, 0.3)...)
}

// paperSampledCells: the cells of the paper's Figures 3 and 4 in sampled
// mode, the mode that regenerates EXPERIMENTS.md.
func paperSampledCells(tiny bool) []cellSpec {
	pols := []string{"Linux4K", "THP", "Carrefour2M", "Conservative", "Reactive", "CarrefourLP"}
	wl := specNames(workloads.ReducedSet())
	if tiny {
		return crossCells([]string{"A"}, wl[:2], pols[:2], sim.ModeSampled, 0.005)
	}
	return crossCells([]string{"A", "B"}, wl, pols, sim.ModeSampled, 0.05)
}

// fullscaleCells: the cells of the fullscale experiment section, machine
// B under the analytic engine.
func fullscaleCells(tiny bool) []cellSpec {
	pols := []string{"Linux4K", "THP", "CarrefourLP"}
	wl := specNames(workloads.Suite())
	if tiny {
		return crossCells([]string{"B"}, wl[:2], pols[:2], sim.ModeAnalytic, 0.005)
	}
	return crossCells([]string{"B"}, wl, pols, sim.ModeAnalytic, 0.3)
}

// cellRun is one simulated cell and where its host time went.
type cellRun struct {
	cell   cellSpec
	res    sim.Result
	quiet  int
	err    error
	wallS  float64 // resolve + sim.New + RunContext
	newS   float64 // sim.New: workloads.Build plus policy set-up
	runS   float64 // RunContext
	phases sim.PhaseWall
}

// phaseSum is the part of RunContext the engine's four phases cover.
func (r cellRun) phaseSum() float64 {
	p := r.phases
	return p.AllocSeconds + p.PriceSeconds + p.MergeSeconds + p.DaemonSeconds
}

// runCell resolves, builds and runs one cell at an engine seed,
// recording spans when tr is not nil. Phase times are attributed only while phase tracking is
// on; cells run one at a time, so the process-wide accumulators' delta
// over RunContext belongs to this cell.
func runCell(c cellSpec, engineSeed uint64, tr *tracer, trace int) cellRun {
	out := cellRun{cell: c}
	key := c.key()
	t0 := time.Now()
	m, err1 := runner.MachineByName(c.Machine)
	spec, err2 := workloads.ByName(c.Workload)
	pol, err3 := policy.ByName(c.Policy)
	t1 := time.Now()
	if out.err = errors.Join(err1, err2, err3); out.err != nil {
		return out
	}
	eng, err := sim.New(m, spec, pol, c.config(engineSeed))
	t2 := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	var before sim.PhaseWall
	if tr != nil {
		before = sim.PhaseWallSnapshot()
	}
	t3 := time.Now()
	out.res, out.err = eng.RunContext(context.Background())
	t4 := time.Now()
	out.quiet = eng.QuietEpochs()
	out.wallS, out.newS, out.runS = t4.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t4.Sub(t3).Seconds()
	if tr != nil {
		after := sim.PhaseWallSnapshot()
		out.phases = sim.PhaseWall{
			AllocSeconds:  after.AllocSeconds - before.AllocSeconds,
			PriceSeconds:  after.PriceSeconds - before.PriceSeconds,
			MergeSeconds:  after.MergeSeconds - before.MergeSeconds,
			DaemonSeconds: after.DaemonSeconds - before.DaemonSeconds,
		}
		root := tr.add("cell", key, 0, trace, t0, t4)
		tr.add("resolve", key, root, trace, t0, t1)
		tr.add("sim.New", key, root, trace, t1, t2)
		run := tr.add("RunContext", key, root, trace, t3, t4)
		off := 0.0
		for _, ph := range []struct {
			name string
			s    float64
		}{{"alloc", out.phases.AllocSeconds}, {"steady-price", out.phases.PriceSeconds},
			{"merge", out.phases.MergeSeconds}, {"daemon", out.phases.DaemonSeconds}} {
			tr.addAggregate(ph.name, key, run, trace, off, ph.s)
			off += ph.s * 1e6
		}
	}
	return out
}

// pass is one run over a workload's fixed cell set.
type pass struct {
	wallS  float64
	setupS float64 // summed sim.New time
	cells  []cellRun
}

// runPass runs the cells one at a time.
func runPass(cells []cellSpec, seed uint64, tr *tracer) pass {
	p := pass{cells: make([]cellRun, len(cells))}
	t0 := time.Now()
	for i, c := range cells {
		p.cells[i] = runCell(c, simSeed(seed), tr, i+1)
		p.setupS += p.cells[i].newS
	}
	p.wallS = time.Since(t0).Seconds()
	return p
}

// check counts the pass's failed cells: errors, timeouts and sanity
// violations, and — when ref is not nil — any result that differs from
// the same cell in ref (the engine is deterministic for a given seed).
func (p pass) check(ref *pass, log func(string, ...any)) (failed int) {
	for i, r := range p.cells {
		err := r.err
		if err == nil {
			err = checkResult(r.res)
		}
		if err == nil && ref != nil && ref.cells[i].err == nil && r.res != ref.cells[i].res {
			err = errors.New("result differs from the same cell's earlier result")
		}
		if err != nil {
			log("cell %s: %v", r.cell.key(), err)
			failed++
		}
	}
	return failed
}

func (p pass) digests() map[string]string {
	d := make(map[string]string, len(p.cells))
	for _, r := range p.cells {
		d[r.cell.key()] = digest(r.res)
	}
	return d
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "lpbench: "+format+"\n", args...) }

// simWorkload wraps a cell set as a benchmark workload. memRung adds the
// mem allocator probe to the traced run.
func simWorkload(name string, cells func(tiny bool) []cellSpec, memRung bool) workload {
	return workload{
		name: name,
		run: func(opts options) (outcome, error) {
			if opts.trace {
				return tracedSim(name, cells(opts.tiny), memRung, opts)
			}
			return untracedSim(cells(opts.tiny), opts), nil
		},
		cells: cells,
	}
}

// untracedSim repeats passes over the cell set until the next pass would
// overrun the measurement window, and reports medians over passes.
// Before each pass it collects the garbage of the earlier ones and
// returns the memory to the OS, so that every pass starts from the heap
// of a fresh process.
func untracedSim(cells []cellSpec, opts options) outcome {
	var o outcome
	var passes []pass
	start := time.Now()
	for {
		debug.FreeOSMemory()
		p := runPass(cells, opts.seed, nil)
		var ref *pass
		if len(passes) > 0 {
			ref = &passes[0]
		}
		o.attempted += len(cells)
		o.failed += p.check(ref, logf)
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.wallS > opts.seconds {
			break
		}
	}
	walls := make([]float64, len(passes))
	setups := make([]float64, len(passes))
	for i, p := range passes {
		walls[i], setups[i] = p.wallS, p.setupS
	}
	o.set("pass_s", median(walls))
	o.set("setup_s", median(setups))
	o.set("rss_peak_mb", rssPeakMB())
	// A request here is one pass, the unit a user of lpnuma experiment
	// waits for. Per-cell percentiles would jump between cells whose
	// costs differ a hundredfold.
	o.set("req_per_s", 1/median(walls))
	o.set("req_p50_ms", median(walls)*1e3)
	o.set("req_p99_ms", quantile(walls, 0.99)*1e3)
	logf("%d passes of %d cells: %.3v s", len(passes), len(cells), walls)
	return o
}

// tracedSim makes one untraced and one traced pass at the run's seed and
// attributes the traced pass layer by layer. A third, untraced pass at
// goldenSeed counts the cells whose results moved since golden.json was
// recorded.
func tracedSim(name string, cells []cellSpec, memRung bool, opts options) (outcome, error) {
	var o outcome
	debug.FreeOSMemory()
	ref := runPass(cells, opts.seed, nil)
	o.failed += ref.check(nil, logf)

	var ms0, ms1 runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&ms0)
	sim.SetPhaseTracking(true)
	tr := newTracer()
	p := runPass(cells, opts.seed, tr)
	sim.SetPhaseTracking(false)
	runtime.ReadMemStats(&ms1)
	o.failed += p.check(&ref, logf)
	o.attempted += 2 * len(cells)

	gold := ref
	if opts.seed != goldenSeed {
		gold = runPass(cells, goldenSeed, nil)
		o.failed += gold.check(nil, logf)
		o.attempted += len(cells)
	}
	changed, err := cellsChanged(name, gold.digests())
	if err != nil {
		return o, err
	}

	var alloc, price, merge, daemon, other, runS float64
	var epochs, quiet int
	var faults [3]uint64
	var ibsSamples uint64
	var overhead float64
	for _, r := range p.cells {
		self := r.runS - r.phaseSum()
		if self < 0 {
			logf("cell %s: phases %.6fs exceed RunContext %.6fs", r.cell.key(), r.phaseSum(), r.runS)
			o.broken = true
		}
		alloc += r.phases.AllocSeconds
		price += r.phases.PriceSeconds
		merge += r.phases.MergeSeconds
		daemon += r.phases.DaemonSeconds
		other += self
		runS += r.runS
		epochs += r.res.Epochs
		quiet += r.quiet
		for i := range faults {
			faults[i] += r.res.FaultCounts[i]
		}
		ibsSamples += r.res.IBSSamplesTaken
		overhead += r.res.DaemonOverheadCycles
	}
	o.set("sim.new_s", p.setupS)
	o.set("sim.alloc_s", alloc)
	o.set("sim.price_s", price)
	o.set("sim.merge_s", merge)
	o.set("sim.daemon_s", daemon)
	o.set("sim.other_s", other)
	o.set("sim.epochs", float64(epochs))
	o.set("sim.quiet_epochs", float64(quiet))
	if epochs > 0 {
		o.set("sim.us_per_epoch", runS/float64(epochs)*1e6)
	}
	o.set("sim.cells_changed", float64(changed))
	o.set("vm.faults_4k", float64(faults[0]))
	o.set("vm.faults_2m", float64(faults[1]))
	o.set("vm.faults_1g", float64(faults[2]))
	o.set("ibs.samples", float64(ibsSamples))
	o.set("policy.overhead_cycles", overhead)
	o.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	o.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	o.set("trace.overhead_frac", (p.wallS-ref.wallS)/ref.wallS)

	if memRung {
		allocNS, freeNS, err := memAllocFree(opts.tiny, tr)
		if err != nil {
			return o, err
		}
		o.set("mem.alloc_run_ns", allocNS)
		o.set("mem.free_run_ns", freeNS)
	}
	path, err := tr.write(filepath.Join(opts.workDir, "trace"), name, opts.seed)
	if err != nil {
		return o, err
	}
	logf("%d spans written to %s; %d cells changed against golden.json", len(tr.spans), path, changed)
	return o, nil
}

// memAllocFree fills a machine-A mem.System with 4 KB frames up to
// WC.churn's arena size, spread evenly over the nodes, tears it down
// again, and returns the host nanoseconds per frame of each direction.
func memAllocFree(tiny bool, tr *tracer) (allocNS, freeNS float64, err error) {
	m, err := runner.MachineByName("A")
	if err != nil {
		return 0, 0, err
	}
	arena := uint64(256 << 20)
	if !tiny {
		arena = 0
		for _, r := range workloads.WCChurn().Regions {
			if r.Name == "arena" {
				arena = r.Bytes
			}
		}
	}
	perNode := int(arena / uint64(m.Nodes) / uint64(mem.Size4K))
	if perNode == 0 {
		return 0, 0, errors.New("mem rung: WC.churn has no arena region")
	}
	s := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	t0 := time.Now()
	for n := 0; n < m.Nodes; n++ {
		if got := s.AllocateRun(topo.NodeID(n), mem.Size4K, perNode); got != perNode {
			return 0, 0, fmt.Errorf("mem rung: node %d allocated %d of %d frames", n, got, perNode)
		}
	}
	t1 := time.Now()
	for n := 0; n < m.Nodes; n++ {
		if err := s.FreeRun(topo.NodeID(n), mem.Size4K, perNode); err != nil {
			return 0, 0, fmt.Errorf("mem rung: %w", err)
		}
	}
	t2 := time.Now()
	for n := 0; n < m.Nodes; n++ {
		if s.Allocated(topo.NodeID(n)) != 0 {
			return 0, 0, fmt.Errorf("mem rung: node %d keeps %d bytes after teardown", n, s.Allocated(topo.NodeID(n)))
		}
	}
	frames := float64(perNode * m.Nodes)
	root := tr.add("mem.rung", "A/WC.churn/arena", 0, 0, t0, t2)
	tr.add("mem.AllocateRun", "", root, 0, t0, t1)
	tr.add("mem.FreeRun", "", root, 0, t1, t2)
	return float64(t1.Sub(t0).Nanoseconds()) / frames, float64(t2.Sub(t1).Nanoseconds()) / frames, nil
}
