// Package runner drives single simulations: it resolves machine,
// workload and policy names, runs one cell, and computes the relative
// improvements the paper's figures plot. Sweeps of many cells go
// through runcache's scheduler.
package runner

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// ErrUnknownMachine is the resolution failure for Request.Machine.
// Callers distinguish bad requests from engine failures with
// errors.Is — the serve layer maps every resolution sentinel
// (ErrUnknownMachine, workloads.ErrUnknownWorkload,
// policy.ErrUnknownPolicy) to HTTP 400.
var ErrUnknownMachine = errors.New("runner: unknown machine")

// Request names one run.
type Request struct {
	Machine  string // "A" or "B"
	Workload string // paper benchmark name
	Policy   string // see package policy
	Seed     uint64
	// Cfg overrides the engine configuration when non-nil.
	Cfg *sim.Config
}

// MachineByName resolves the paper's machine names.
func MachineByName(name string) (*topo.Machine, error) {
	switch name {
	case "A", "a":
		return topo.MachineA(), nil
	case "B", "b":
		return topo.MachineB(), nil
	default:
		return nil, fmt.Errorf("%w %q (want A or B)", ErrUnknownMachine, name)
	}
}

// Run executes one simulation.
func Run(req Request) (sim.Result, error) {
	return RunContext(context.Background(), req)
}

// RunContext executes one simulation, aborting between epochs when ctx
// is canceled (the engine polls the context once per epoch, so
// cancellation latency is one epoch of host time). The returned error is
// ctx.Err() on cancellation, a resolution sentinel
// (ErrUnknownMachine, workloads.ErrUnknownWorkload,
// policy.ErrUnknownPolicy) wrapped with request context on a bad name,
// or an engine construction failure.
func RunContext(ctx context.Context, req Request) (sim.Result, error) {
	m, err := MachineByName(req.Machine)
	if err != nil {
		return sim.Result{}, err
	}
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		return sim.Result{}, err
	}
	pol, err := policy.ByName(req.Policy)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := sim.DefaultConfig()
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	eng, err := sim.New(m, spec, pol, cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return eng.RunContext(ctx)
}

// ImprovementPct is the paper's performance metric: percent improvement of
// x over the baseline, computed from runtimes (positive = x is faster).
func ImprovementPct(baseline, x sim.Result) float64 {
	if x.RuntimeSeconds <= 0 {
		return 0
	}
	return (baseline.RuntimeSeconds/x.RuntimeSeconds - 1) * 100
}

// Key identifies a result in a sweep map.
type Key struct {
	Machine, Workload, Policy string
}
