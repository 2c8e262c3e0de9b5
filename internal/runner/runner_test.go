package runner

import (
	"testing"

	"repro/internal/sim"
)

// quickCfg shrinks runs so tests stay fast.
func quickCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WorkScale = 0.02
	return &cfg
}

func TestMachineByName(t *testing.T) {
	a, err := MachineByName("A")
	if err != nil || a.Nodes != 4 {
		t.Fatalf("machine A: %v %v", a, err)
	}
	b, err := MachineByName("b")
	if err != nil || b.Nodes != 8 {
		t.Fatalf("machine b: %v %v", b, err)
	}
	if _, err := MachineByName("C"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Request{Machine: "X", Workload: "CG.D", Policy: "THP"}); err == nil {
		t.Fatal("bad machine accepted")
	}
	if _, err := Run(Request{Machine: "A", Workload: "nope", Policy: "THP"}); err == nil {
		t.Fatal("bad workload accepted")
	}
	if _, err := Run(Request{Machine: "A", Workload: "CG.D", Policy: "nope"}); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestRunProducesResult(t *testing.T) {
	res, err := Run(Request{Machine: "A", Workload: "EP.C", Policy: "Linux4K", Seed: 1, Cfg: quickCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "EP.C" || res.Policy != "Linux4K" || res.Machine != "A" {
		t.Fatalf("labels wrong: %+v", res)
	}
	if res.RuntimeSeconds <= 0 || res.TimedOut {
		t.Fatalf("implausible run: %+v", res)
	}
}

func TestImprovementPct(t *testing.T) {
	base := sim.Result{RuntimeSeconds: 10}
	fast := sim.Result{RuntimeSeconds: 5}
	slow := sim.Result{RuntimeSeconds: 20}
	if got := ImprovementPct(base, fast); got != 100 {
		t.Fatalf("2x speedup = %v, want +100", got)
	}
	if got := ImprovementPct(base, slow); got != -50 {
		t.Fatalf("2x slowdown = %v, want -50", got)
	}
	if ImprovementPct(base, sim.Result{}) != 0 {
		t.Fatal("zero runtime should yield 0")
	}
}
