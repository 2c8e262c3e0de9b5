package lpnuma

import (
	"testing"
)

func TestSurfaceLists(t *testing.T) {
	if len(Workloads()) != 22 {
		t.Fatalf("workloads = %d, want 22 (20 static + 2 dynamic)", len(Workloads()))
	}
	if len(Policies()) != 11 {
		t.Fatalf("policies = %d, want 11 (7 paper + 4 beyond)", len(Policies()))
	}
	if len(Experiments()) != 13 {
		t.Fatalf("experiments = %d, want 13", len(Experiments()))
	}
}

func TestMachines(t *testing.T) {
	if MachineA().TotalCores() != 24 || MachineB().TotalCores() != 64 {
		t.Fatal("machine definitions changed")
	}
}

func TestRunRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkScale = 0.02
	res, err := Run(Request{Machine: "A", Workload: "Kmeans", Policy: PolicyTHP, Seed: 1, Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "Kmeans" || res.Policy != "THP" {
		t.Fatalf("labels: %+v", res)
	}
	base, err := Run(Request{Machine: "A", Workload: "Kmeans", Policy: PolicyLinux4K, Seed: 1, Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	_ = ImprovementPct(base, res) // must not panic
}

// TestRunAllMatchesSequential checks that RunAll, which resolves through
// the shared sweep scheduler, returns in request order exactly what
// sequential Run calls produce — duplicate requests included.
func TestRunAllMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkScale = 0.02
	reqs := []Request{
		{Machine: "A", Workload: "EP.C", Policy: PolicyLinux4K, Seed: 1, Cfg: &cfg},
		{Machine: "A", Workload: "EP.C", Policy: PolicyTHP, Seed: 1, Cfg: &cfg},
		{Machine: "A", Workload: "EP.C", Policy: PolicyLinux4K, Seed: 1, Cfg: &cfg},
	}
	par, err := RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(reqs) {
		t.Fatalf("RunAll returned %d results for %d requests", len(par), len(reqs))
	}
	for i, req := range reqs {
		seq, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if par[i] != seq {
			t.Fatalf("RunAll result %d diverged from sequential Run:\n all: %+v\n run: %+v", i, par[i], seq)
		}
	}
	if _, err := RunAll([]Request{{Machine: "X", Workload: "EP.C", Policy: PolicyTHP}}); err == nil {
		t.Fatal("RunAll accepted an unknown machine")
	}
}
