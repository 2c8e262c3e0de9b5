package sim_test

// Byte-identity of the batched allocation path (DESIGN.md §4.11).
// Committing a span of same-(chunk, node, size) first-touches in one
// batched operation is a pure evaluation-order optimization: the float
// accumulators advance by the same per-touch addition sequences, the
// physical allocator sees the same transaction sequence, and the
// integer counters sum — so Config.PerPageAlloc (which forces every
// touch through the original vm.Access path) must change nothing.
// Result is comparable and compared with ==; a tolerance would hide the
// exact class of drift (reordered float adds, a skipped fallback) the
// switch exists to catch.

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// allocCell is one cell of the batched-allocation identity matrix.
type allocCell struct {
	machine, pol string
	workload     string
	spec         *workloads.Spec // overrides ByName (event-timeline cells)
	mode         sim.Mode
	workScale    float64
}

// allocBatchMatrix covers every run-kind and pre-check edge the batched
// path has: pure 4 KB fault runs (Linux4K), 2 MB single-touch faults
// plus post-fault hit runs (THP), 1 GB premapped hit runs (HugeTLB1G),
// a daemon that migrates and splits mid-alloc so classification meets
// split chunks (CarrefourLP), an event timeline whose churn exercises
// capacity pressure, and both engine modes — allocation always runs at
// full fidelity, so both must be invariant.
func allocBatchMatrix() []allocCell {
	churn := churnTimeline()
	return []allocCell{
		{machine: "A", pol: "Linux4K", workload: "UA.B", mode: sim.ModeAnalytic, workScale: 0.05},
		{machine: "A", pol: "THP", workload: "UA.B", mode: sim.ModeAnalytic, workScale: 0.05},
		{machine: "B", pol: "HugeTLB1G", workload: "CG.D", mode: sim.ModeAnalytic, workScale: 0.05},
		{machine: "B", pol: "CarrefourLP", workload: "CG.D", mode: sim.ModeAnalytic, workScale: 0.05},
		{machine: "A", pol: "THP", spec: &churn, workload: churn.Name, mode: sim.ModeAnalytic, workScale: 0.05},
		{machine: "A", pol: "Linux4K", workload: "SSCA.20", mode: sim.ModeSampled, workScale: 0.05},
		{machine: "B", pol: "THP", workload: "SPECjbb", mode: sim.ModeSampled, workScale: 0.05},
	}
}

// runAllocCell runs one cell with the requested allocation path.
func runAllocCell(t *testing.T, c allocCell, perPage bool) sim.Result {
	t.Helper()
	machine := topo.MachineA()
	if c.machine == "B" {
		machine = topo.MachineB()
	}
	var spec workloads.Spec
	if c.spec != nil {
		spec = *c.spec
	} else {
		var err error
		spec, err = workloads.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
	}
	pol, err := policy.ByName(c.pol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WorkScale = c.workScale
	cfg.Mode = c.mode
	cfg.PerPageAlloc = perPage
	eng, err := sim.New(machine, spec, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.TimedOut {
		t.Fatalf("%s/%s/%s timed out", c.machine, c.workload, c.pol)
	}
	return res
}

// TestBatchedAllocMatchesPerPage is the batched path's identity check:
// for every cell the batched allocation phase equals the per-page
// reference exactly.
func TestBatchedAllocMatchesPerPage(t *testing.T) {
	for _, c := range allocBatchMatrix() {
		c := c
		mode := "analytic"
		if c.mode == sim.ModeSampled {
			mode = "sampled"
		}
		t.Run(c.machine+"/"+c.workload+"/"+c.pol+"/"+mode, func(t *testing.T) {
			t.Parallel()
			ref := runAllocCell(t, c, true)
			got := runAllocCell(t, c, false)
			if got != ref {
				t.Errorf("batched allocation result differs from per-page reference:\n batched:  %+v\n per-page: %+v", got, ref)
			}
		})
	}
}
