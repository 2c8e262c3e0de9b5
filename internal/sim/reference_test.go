package sim_test

// The reference matrix: one exact-equality check for every fast path
// of the engine. The incremental memos (DESIGN.md §4.10), batched
// allocation faulting and the merge memo (§4.11), due-gated pipeline
// daemons (§4.11) and parallel pricing (§4.6) are all pure
// evaluation-order optimizations, so for every cell the fast engine at
// 1, 2 and 8 workers, and the reference engine (sim.SetReference: every
// slow path at once) at 8 workers, must produce a sim.Result EXACTLY
// equal to the reference engine at 1 worker. Result is comparable and
// compared with ==; a tolerance would hide the drift this test exists
// to catch — a missed Gen bump, a reordered float add, a dropped touch,
// a gate that hides pending work.
//
// External test package: the policy registry imports sim.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// refCell is one cell of the reference matrix.
type refCell struct {
	machine string // "A" or "B"
	spec    workloads.Spec
	pol     string
	mode    sim.Mode
	// scale is the WorkScale: 0.05 for the cross product, 1 for the
	// full-scale cells whose long steady stretches let quiescence engage.
	scale float64
	// wantQuiet asserts the fast run exercises the quiescent fast path,
	// so the check is non-vacuous for deferred census and IBS thinning.
	wantQuiet bool
	// wantPromote asserts khugepaged promotes during the run: its hook is
	// due-gated on pending work, so only a cell where that work exists
	// can catch a gate that hides it.
	wantPromote bool
}

func (c refCell) name() string {
	n := c.machine + "/" + c.spec.Name + "/" + c.pol + "/" + c.mode.String()
	if c.scale == 1 {
		n += "/full"
	}
	return n
}

// referenceMatrix is every policy.Names() pipeline — the paper's seven
// plus the Trident 4K/2M/1G ladder and the page-table pipelines — on
// machine A UA.B (sharing, halos, multi-region: every daemon has work),
// machine B CG.D (the 64-thread hot-page path) and the two event
// timelines (growth/churn and shift/free, where events rewrite weights,
// phases and mappings mid-run), in both pricing modes. On top come the
// sampled allocation cells SSCA.20/Linux4K and SPECjbb/THP; SPECjbb
// under Conservative, which switches THP on mid-run so the due-gated
// khugepaged hook has real promotion work (no cell above promotes
// anything); and two full-scale analytic cells where quiescence
// provably engages: a hook-free pipeline, and THP, whose khugepaged
// hook is due-gated.
func referenceMatrix(t *testing.T) []refCell {
	byName := func(name string) workloads.Spec {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	churn, free := churnTimeline(), shiftFreeTimeline()
	for _, spec := range []workloads.Spec{churn, free} {
		if len(spec.Events) == 0 {
			t.Fatalf("timeline %s declares no events; its cells would be vacuous", spec.Name)
		}
	}
	var cells []refCell
	for _, w := range []struct {
		machine string
		spec    workloads.Spec
	}{{"A", byName("UA.B")}, {"B", byName("CG.D")}, {"A", churn}, {"A", free}} {
		for _, pol := range policy.Names() {
			for _, mode := range []sim.Mode{sim.ModeSampled, sim.ModeAnalytic} {
				cells = append(cells, refCell{machine: w.machine, spec: w.spec, pol: pol, mode: mode, scale: 0.05})
			}
		}
	}
	return append(cells,
		refCell{machine: "A", spec: byName("SSCA.20"), pol: "Linux4K", mode: sim.ModeSampled, scale: 0.05},
		refCell{machine: "B", spec: byName("SPECjbb"), pol: "THP", mode: sim.ModeSampled, scale: 0.05},
		refCell{machine: "A", spec: byName("SPECjbb"), pol: "Conservative", mode: sim.ModeSampled, scale: 0.05, wantPromote: true},
		refCell{machine: "A", spec: byName("SPECjbb"), pol: "Conservative", mode: sim.ModeAnalytic, scale: 0.05, wantPromote: true},
		refCell{machine: "B", spec: byName("CG.D"), pol: "PTBaseline", mode: sim.ModeAnalytic, scale: 1, wantQuiet: true},
		refCell{machine: "A", spec: byName("SSCA.20"), pol: "THP", mode: sim.ModeAnalytic, scale: 1, wantQuiet: true},
	)
}

// cellRuns holds one cell's five runs. A cell that several of the named
// selections below include is simulated once per test binary.
type cellRuns struct {
	once     sync.Once
	err      error
	ref      [2]sim.Result // reference engine at 1 and 8 workers
	fast     [3]sim.Result // fast engine at fastWorkers
	quiet    int           // most quiet epochs any fast run saw
	promoted uint64        // chunks khugepaged promoted in the reference run
}

var fastWorkers = [3]int{1, 2, 8}

// cellMemo maps refCell.name() to its *cellRuns.
var cellMemo sync.Map

// runRef runs one cell and returns the result, its quiet-epoch count
// and how many chunks khugepaged promoted.
func runRef(c refCell, workers int, reference bool) (sim.Result, int, uint64, error) {
	machine := topo.MachineA()
	if c.machine == "B" {
		machine = topo.MachineB()
	}
	pol, err := policy.ByName(c.pol)
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	cfg := sim.DefaultConfig()
	cfg.WorkScale = c.scale
	cfg.Mode = c.mode
	cfg.Workers = workers
	eng, err := sim.New(machine, c.spec, pol, cfg)
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	sim.SetReference(eng, reference)
	res := eng.Run()
	if res.TimedOut {
		return sim.Result{}, 0, 0, fmt.Errorf("%s timed out (reference=%v, %d workers)", c.name(), reference, workers)
	}
	var promoted uint64
	if th := pol.(*policy.Pipeline).THP(); th != nil {
		promoted = th.Promoted()
	}
	return res, eng.QuietEpochs(), promoted, nil
}

func (r *cellRuns) run(c refCell) error {
	var err error
	if r.ref[0], _, r.promoted, err = runRef(c, 1, true); err != nil {
		return err
	}
	if r.ref[1], _, _, err = runRef(c, 8, true); err != nil {
		return err
	}
	for i, workers := range fastWorkers {
		var q int
		if r.fast[i], q, _, err = runRef(c, workers, false); err != nil {
			return err
		}
		r.quiet = max(r.quiet, q)
	}
	return nil
}

// checkCell is the matrix check for one cell: the fast engine at 1, 2
// and 8 workers and the reference engine at 8 workers must equal the
// reference engine at 1 worker, plus the cell's non-vacuity guards.
func checkCell(t *testing.T, c refCell) {
	t.Helper()
	v, _ := cellMemo.LoadOrStore(c.name(), new(cellRuns))
	r := v.(*cellRuns)
	r.once.Do(func() { r.err = r.run(c) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	ref := r.ref[0]
	for i, workers := range fastWorkers {
		if r.fast[i] != ref {
			t.Errorf("fast engine at %d workers differs from the reference:\n fast: %+v\n ref:  %+v", workers, r.fast[i], ref)
		}
	}
	if r.ref[1] != ref {
		t.Errorf("reference engine differs between 8 and 1 workers:\n 8w: %+v\n 1w: %+v", r.ref[1], ref)
	}
	if c.wantQuiet && r.quiet == 0 {
		t.Errorf("cell expected to exercise the quiescent path saw 0 quiet epochs")
	}
	if c.wantPromote && r.promoted == 0 {
		t.Errorf("cell expected khugepaged to promote, but the reference run promoted nothing")
	}
}

// TestReferenceMatrix is the engine's byte-identity contract.
func TestReferenceMatrix(t *testing.T) {
	for _, c := range referenceMatrix(t) {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			checkCell(t, c)
		})
	}
}

// The tests below are named selections of the matrix: each runs
// checkCell on the cells one fast path's identity check has always
// covered, under that check's subtest names, so a failure still points
// at the path most likely at fault. Memoized runs make them free when
// TestReferenceMatrix runs in the same binary.

// runCells runs checkCell as a parallel subtest for each {label, cell
// name} pair; a name the matrix no longer holds fails the selection.
func runCells(t *testing.T, pairs [][2]string) {
	t.Helper()
	byName := map[string]refCell{}
	for _, c := range referenceMatrix(t) {
		byName[c.name()] = c
	}
	for _, p := range pairs {
		c, ok := byName[p[1]]
		if !ok {
			t.Fatalf("reference matrix has no cell %s", p[1])
		}
		t.Run(p[0], func(t *testing.T) {
			t.Parallel()
			checkCell(t, c)
		})
	}
}

// TestIncrementalMatchesFullRecompute selects the cells covering the
// incremental memos' invalidation surfaces (DESIGN.md §4.10): a
// hook-free pipeline, Carrefour migrations bumping Region.Gen mid-run,
// giant pages on the 64-thread machine, both full-scale quiescent
// cells and both event timelines.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	runCells(t, [][2]string{
		{"A/UA.B/Linux4K", "A/UA.B/Linux4K/analytic"},
		{"A/UA.B/CarrefourLP", "A/UA.B/CarrefourLP/analytic"},
		{"B/CG.D/HugeTLB1G", "B/CG.D/HugeTLB1G/analytic"},
		{"B/CG.D/PTBaseline", "B/CG.D/PTBaseline/analytic/full"},
		{"A/SSCA.20/THP", "A/SSCA.20/THP/analytic/full"},
		{"A/churn.eq/THP", "A/churn.eq/THP/analytic"},
		{"A/free.eq/TridentLP", "A/free.eq/TridentLP/analytic"},
	})
}

// TestIncrementalCacheInvalidation selects every cell on the two event
// timelines, where growth, churn remaps, hot-set shifts and unmaps
// rewrite weights, phases and mappings mid-run.
func TestIncrementalCacheInvalidation(t *testing.T) {
	for _, spec := range []workloads.Spec{churnTimeline(), shiftFreeTimeline()} {
		t.Run(spec.Name, func(t *testing.T) {
			var pairs [][2]string
			for _, pol := range policy.Names() {
				for _, mode := range []sim.Mode{sim.ModeSampled, sim.ModeAnalytic} {
					name := "A/" + spec.Name + "/" + pol + "/" + mode.String()
					pairs = append(pairs, [2]string{pol + "/" + mode.String(), name})
				}
			}
			runCells(t, pairs)
		})
	}
}

// TestBatchedAllocMatchesPerPage selects the cells covering every run
// kind of batched allocation faulting (DESIGN.md §4.11): 4 KB fault
// runs, 2 MB single-touch faults with post-fault hit runs, 1 GB
// premapped hits, a daemon splitting chunks mid-alloc, churn capacity
// pressure, and sampled mode.
func TestBatchedAllocMatchesPerPage(t *testing.T) {
	var pairs [][2]string
	for _, name := range []string{
		"A/UA.B/Linux4K/analytic",
		"A/UA.B/THP/analytic",
		"B/CG.D/HugeTLB1G/analytic",
		"B/CG.D/CarrefourLP/analytic",
		"A/churn.eq/THP/analytic",
		"A/SSCA.20/Linux4K/sampled",
		"B/SPECjbb/THP/sampled",
	} {
		pairs = append(pairs, [2]string{name, name})
	}
	runCells(t, pairs)
}

// TestResultIdenticalAcrossWorkerCounts selects the parallel-pricing
// cells (DESIGN.md §4.6) that runcache's exclusion of Config.Workers
// and Pool from cell addresses rests on: every pipeline on A/UA.B, two
// on the 64-thread B/CG.D path, and three on each event timeline, in
// both pricing modes.
func TestResultIdenticalAcrossWorkerCounts(t *testing.T) {
	var pairs [][2]string
	add := func(machine, workload string, pols ...string) {
		for _, pol := range pols {
			for _, mode := range []sim.Mode{sim.ModeSampled, sim.ModeAnalytic} {
				name := machine + "/" + workload + "/" + pol + "/" + mode.String()
				pairs = append(pairs, [2]string{name, name})
			}
		}
	}
	add("A", "UA.B", policy.Names()...)
	add("B", "CG.D", "THP", "TridentLP")
	for _, spec := range []workloads.Spec{churnTimeline(), shiftFreeTimeline()} {
		add("A", spec.Name, "THP", "CarrefourLP", "TridentLP")
	}
	runCells(t, pairs)
}
