package sim_test

// Pre-registered equivalence gate for physical-memory model changes.
// testdata/dynamic_gate.json holds the seed-averaged results of the
// `dynamic` experiment section's cells as the frame-exact buddy
// allocator produced them; any later allocator model must reproduce
// them within fixed bounds. The bounds were written down together with
// the recorded values, before the model they gate existed, and are not
// to be widened to admit a model that misses them:
//
//   - runtime within 2% (relative);
//   - LAR and imbalance within 2 percentage points;
//   - 4K and 2M fault counts within 5% (relative; a recorded 0 must
//     stay 0).
//
// Re-record only when the section's cells themselves change (new
// workload shape or policy), never to absorb a model difference:
//
//	go test ./internal/sim -run TestDynamicModelGate -record-dynamic-gate

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

var recordDynamicGate = flag.Bool("record-dynamic-gate", false,
	"rewrite testdata/dynamic_gate.json from the current memory model")

const dynamicGatePath = "testdata/dynamic_gate.json"

// gateScale is the reduced work scale the gate runs at. WC.churn faults
// and tears down its full 60 GiB arena at any scale, so the scale only
// shortens the steady phases around the events.
const gateScale = 0.1

var (
	gateWorkloads = []string{"WC.churn", "CG.shift"}
	gatePolicies  = []string{"Linux4K", "THP", "CarrefourLP", "TridentLP"}
	gateSeeds     = []uint64{1, 2, 3, 4}
)

// gateCell is one cell's seed-averaged observables.
type gateCell struct {
	Cell         string  `json:"cell"`
	RuntimeS     float64 `json:"runtime_s"`
	LARPct       float64 `json:"lar_pct"`
	ImbalancePct float64 `json:"imbalance_pct"`
	Faults4K     float64 `json:"faults_4k"`
	Faults2M     float64 `json:"faults_2m"`
}

// gateFile is the committed record.
type gateFile struct {
	Machine string     `json:"machine"`
	Mode    string     `json:"mode"`
	Scale   float64    `json:"scale"`
	Seeds   []uint64   `json:"seeds"`
	Cells   []gateCell `json:"cells"`
}

// measureGate runs every (workload, policy, seed) of the gate on
// machine A in analytic mode and averages over seeds. Runs execute on
// at most two goroutines: each WC.churn engine maps a 60 GiB arena.
func measureGate(t *testing.T) []gateCell {
	t.Helper()
	type job struct{ w, p, i int }
	var jobs []job
	for w := range gateWorkloads {
		for p := range gatePolicies {
			for i := range gateSeeds {
				jobs = append(jobs, job{w, p, i})
			}
		}
	}
	results := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := min(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				results[j], errs[j] = runGateCell(gateWorkloads[jobs[j].w], gatePolicies[jobs[j].p], gateSeeds[jobs[j].i])
			}
		}()
	}
	for j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()

	var cells []gateCell
	n := float64(len(gateSeeds))
	for j := 0; j < len(jobs); j += len(gateSeeds) {
		c := gateCell{Cell: fmt.Sprintf("A/%s/%s", gateWorkloads[jobs[j].w], gatePolicies[jobs[j].p])}
		for k := j; k < j+len(gateSeeds); k++ {
			if errs[k] != nil {
				t.Fatalf("%s seed %d: %v", c.Cell, gateSeeds[jobs[k].i], errs[k])
			}
			r := results[k]
			c.RuntimeS += r.RuntimeSeconds / n
			c.LARPct += r.LARPct / n
			c.ImbalancePct += r.ImbalancePct / n
			c.Faults4K += float64(r.FaultCounts[0]) / n
			c.Faults2M += float64(r.FaultCounts[1]) / n
		}
		cells = append(cells, c)
	}
	return cells
}

func runGateCell(w, p string, seed uint64) (sim.Result, error) {
	spec, err := workloads.ByName(w)
	if err != nil {
		return sim.Result{}, err
	}
	pol, err := policy.ByName(p)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.Mode = sim.ModeAnalytic
	cfg.WorkScale = gateScale
	cfg.Seed = seed
	cfg.Workers = 1
	eng, err := sim.New(topo.MachineA(), spec, pol, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	res := eng.Run()
	if res.TimedOut {
		return res, fmt.Errorf("timed out")
	}
	return res, nil
}

// TestDynamicModelGate holds the current physical-memory model to the
// recorded frame-exact results of the dynamic section (bounds above).
func TestDynamicModelGate(t *testing.T) {
	got := measureGate(t)
	if *recordDynamicGate {
		f := gateFile{Machine: "A", Mode: "analytic", Scale: gateScale, Seeds: gateSeeds, Cells: got}
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(dynamicGatePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dynamicGatePath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d cells to %s", len(got), dynamicGatePath)
		return
	}
	b, err := os.ReadFile(dynamicGatePath)
	if err != nil {
		t.Fatal(err)
	}
	var want gateFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if want.Scale != gateScale || len(want.Seeds) != len(gateSeeds) || len(want.Cells) != len(got) {
		t.Fatalf("%s does not describe this gate's cells; re-record it", dynamicGatePath)
	}
	relWithin := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	for i, w := range want.Cells {
		g := got[i]
		if g.Cell != w.Cell {
			t.Fatalf("cell %d: recorded %s, measured %s", i, w.Cell, g.Cell)
		}
		t.Logf("%s: runtime %.4f/%.4f s, LAR %.2f/%.2f, imbalance %.2f/%.2f, 4K %.0f/%.0f, 2M %.1f/%.1f (recorded/measured)",
			w.Cell, w.RuntimeS, g.RuntimeS, w.LARPct, g.LARPct, w.ImbalancePct, g.ImbalancePct,
			w.Faults4K, g.Faults4K, w.Faults2M, g.Faults2M)
		if !relWithin(g.RuntimeS, w.RuntimeS, 0.02) {
			t.Errorf("%s: runtime %.4f s vs recorded %.4f s (bound 2%%)", w.Cell, g.RuntimeS, w.RuntimeS)
		}
		if d := math.Abs(g.LARPct - w.LARPct); d > 2 {
			t.Errorf("%s: LAR %.2f%% vs recorded %.2f%% (bound 2 points)", w.Cell, g.LARPct, w.LARPct)
		}
		if d := math.Abs(g.ImbalancePct - w.ImbalancePct); d > 2 {
			t.Errorf("%s: imbalance %.2f%% vs recorded %.2f%% (bound 2 points)", w.Cell, g.ImbalancePct, w.ImbalancePct)
		}
		if !relWithin(g.Faults4K, w.Faults4K, 0.05) {
			t.Errorf("%s: 4K faults %.0f vs recorded %.0f (bound 5%%)", w.Cell, g.Faults4K, w.Faults4K)
		}
		if !relWithin(g.Faults2M, w.Faults2M, 0.05) {
			t.Errorf("%s: 2M faults %.1f vs recorded %.1f (bound 5%%)", w.Cell, g.Faults2M, w.Faults2M)
		}
	}
}
