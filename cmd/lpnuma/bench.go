package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/runcache"
	"repro/lpnuma"
)

// benchSchemaVersion identifies the benchReport JSON layout. Bump it on
// any change to field meanings (fields may be added without a bump), so
// BENCH_lpnuma.json files from different PRs are compared knowingly:
//
//	1 — original layout (implicit; no schema_version field)
//	2 — adds schema_version, host goos/goarch, and the suite dimensions
//	    (workloads/policies/experiments counts)
//	3 — adds mode (sampled/analytic): passes run under different pricing
//	    engines are not comparable, so the field is part of the meaning
//	    of every timing in the report
//	4 — adds suite ("sweep" here, "serve" in BENCH_serve.json): reports
//	    from different benchmark harnesses share the version discipline
//	    but measure different things and are never comparable
//	5 — BENCH_lpnuma.json becomes a JSON array of reports: the sweep
//	    report plus an analytic-incremental report (suite
//	    "analytic-incremental", with baseline_wall_seconds and speedup
//	    for the incremental engine of DESIGN.md §4.10). BENCH_serve.json
//	    stays a single object at this same version.
//	6 — adds the per-phase wall breakdown (phase_alloc_seconds,
//	    phase_price_seconds, phase_merge_seconds, phase_daemon_seconds):
//	    cumulative engine wall time in the allocation-fault, parallel
//	    pricing, serial merge, and policy-daemon phases across every
//	    simulation the report's suite ran (DESIGN.md §4.11). The phase
//	    sum is less than wall_seconds — setup, census, and reporting
//	    live outside the four phases.
const benchSchemaVersion = 6

// benchReport is the machine-readable result of `lpnuma bench`, written
// as JSON so successive PRs accumulate a perf trajectory
// (BENCH_lpnuma.json in CI artifacts, or checked diffs locally).
type benchReport struct {
	SchemaVersion int     `json:"schema_version"`
	Suite         string  `json:"suite"`
	Bench         string  `json:"bench"`
	Scale         float64 `json:"scale"`
	Mode          string  `json:"mode"`
	Seed          uint64  `json:"seed"`
	Jobs          int     `json:"jobs"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	// Suite dimensions: reports with different matrices are not
	// comparable cell-for-cell even at the same scale.
	Workloads   int     `json:"workloads"`
	Policies    int     `json:"policies"`
	NumExps     int     `json:"experiment_count"`
	WallSeconds float64 `json:"wall_seconds"`
	// Cells is the number of requested simulation cells, Runs the number
	// actually executed after dedup — the pass's real unit of work.
	Cells int `json:"cells"`
	Runs  int `json:"runs"`
	// CellsPerSecond is Runs/WallSeconds, the headline throughput number.
	CellsPerSecond float64           `json:"cells_per_second"`
	Experiments    []benchExperiment `json:"experiments,omitempty"`
	// The analytic-incremental suite's headline comparison — one steady
	// pricing epoch, full recompute vs the quiescent fast path:
	// BaselineWallSeconds is the full-recompute seconds per epoch and
	// Speedup the full/quiescent ratio. The per-epoch timings appear as
	// experiment rows. Sweep and serve reports omit both fields.
	BaselineWallSeconds float64 `json:"baseline_wall_seconds,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	// Per-phase engine wall breakdown (schema 6): where the suite's
	// simulation time actually went, summed over every engine run.
	PhaseAllocSeconds  float64 `json:"phase_alloc_seconds"`
	PhasePriceSeconds  float64 `json:"phase_price_seconds"`
	PhaseMergeSeconds  float64 `json:"phase_merge_seconds"`
	PhaseDaemonSeconds float64 `json:"phase_daemon_seconds"`
}

// setPhases copies a phase-wall snapshot delta into the report fields.
func (r *benchReport) setPhases(w lpnuma.PhaseWall) {
	r.PhaseAllocSeconds = w.AllocSeconds
	r.PhasePriceSeconds = w.PriceSeconds
	r.PhaseMergeSeconds = w.MergeSeconds
	r.PhaseDaemonSeconds = w.DaemonSeconds
}

// phaseDelta subtracts two snapshots, isolating one suite's share of the
// process-wide accumulators.
func phaseDelta(after, before lpnuma.PhaseWall) lpnuma.PhaseWall {
	return lpnuma.PhaseWall{
		AllocSeconds:  after.AllocSeconds - before.AllocSeconds,
		PriceSeconds:  after.PriceSeconds - before.PriceSeconds,
		MergeSeconds:  after.MergeSeconds - before.MergeSeconds,
		DaemonSeconds: after.DaemonSeconds - before.DaemonSeconds,
	}
}

// benchExperiment is one experiment's share of the pass.
type benchExperiment struct {
	ID          string  `json:"id"`
	Cells       int     `json:"cells"`
	Runs        int     `json:"runs"`
	WallSeconds float64 `json:"wall_seconds"`
}

// incrementalBench measures the incremental analytic engine (DESIGN.md
// §4.10) on one fixed cell: CG.D on machine B under PTBaseline (a
// hook-free pipeline, so quiescence can engage) at full scale. The
// headline — BaselineWallSeconds and Speedup — is the steady pricing
// epoch itself, full recompute vs the quiescent fast path, because
// whole runs are dominated by the full-fidelity allocation phase and
// the shared merge stage that both variants execute identically. That
// the fast path is byte-identical to the reference on this very cell is
// a test (the B/CG.D/PTBaseline full-scale cell of the reference
// matrix), not something the benchmark re-checks.
func incrementalBench(seed uint64) (benchReport, error) {
	const epochReps = 200 // per-epoch timing loop
	start := time.Now()
	epochCfg := lpnuma.DefaultConfig()
	epochCfg.WorkScale = 1.0
	epochCfg.Seed = seed
	eb, err := lpnuma.BenchAnalyticEpoch("B", "CG.D", "PTBaseline", epochCfg, epochReps)
	if err != nil {
		return benchReport{}, err
	}
	rep := benchReport{
		SchemaVersion:       benchSchemaVersion,
		Suite:               "analytic-incremental",
		Bench:               "B/CG.D/PTBaseline",
		Scale:               1.0,
		Mode:                lpnuma.ModeAnalytic.String(),
		Seed:                seed,
		Jobs:                1,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		NumCPU:              runtime.NumCPU(),
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		Workloads:           1,
		Policies:            1,
		WallSeconds:         time.Since(start).Seconds(),
		BaselineWallSeconds: eb.FullSeconds,
	}
	if eb.QuiescentSeconds > 0 {
		rep.Speedup = eb.FullSeconds / eb.QuiescentSeconds
	}
	rep.Experiments = []benchExperiment{
		{ID: "epoch-full-recompute", Runs: epochReps, WallSeconds: eb.FullSeconds},
		{ID: "epoch-quiescent", Runs: epochReps, WallSeconds: eb.QuiescentSeconds},
	}
	return rep, nil
}

// runBench executes the full experiment sweep as a timed benchmark and
// writes a JSON report. It is the CI perf smoke: a fixed workload whose
// wall clock is comparable across commits on the same runner.
func runBench(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 0.1, "work scale of the benchmark pass")
	jobs := fs.Int("j", 0, "concurrent simulations (0 = host CPU count)")
	out := fs.String("o", "BENCH_lpnuma.json", "output JSON path (- for stdout)")
	cache := fs.String("cache", "", "persistent cell cache (warm caches change the numbers; the report's runs field says how much was simulated)")
	modeName := fs.String("mode", "sampled", "steady-state pricing engine (sampled or analytic)")
	var prof profileFlags
	prof.register(fs)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		fmt.Fprintf(stderr, "unexpected arguments\n")
		return errFlagParse
	}
	mode, err := parseMode(*modeName, stderr)
	if err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	cfg := lpnuma.ExperimentConfig{Seed: *seed, WorkScale: *scale, Mode: mode}
	sched := lpnuma.NewScheduler(*jobs)
	if *cache != "" {
		store, err := openStore(*cache, sched, stderr)
		if err != nil {
			return err
		}
		defer func() {
			if err := store.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	rep := benchReport{
		SchemaVersion: benchSchemaVersion,
		Suite:         "sweep",
		Bench:         "lpnuma-all",
		Scale:         *scale,
		Mode:          mode.String(),
		Seed:          *seed,
		Jobs:          sched.Workers(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Workloads:     len(lpnuma.Workloads()),
		Policies:      len(lpnuma.Policies()),
		NumExps:       len(lpnuma.Experiments()),
	}
	lpnuma.ResetPhaseWall()
	lpnuma.SetPhaseTracking(true)
	defer lpnuma.SetPhaseTracking(false)
	start := time.Now()
	var total runcache.Stats
	for _, id := range lpnuma.Experiments() {
		expStart := time.Now()
		res, err := lpnuma.RunExperimentWith(sched, id, cfg)
		if err != nil {
			return err
		}
		wall := time.Since(expStart).Seconds()
		rep.Experiments = append(rep.Experiments, benchExperiment{
			ID: id, Cells: res.Sweep.Requested, Runs: res.Sweep.Runs, WallSeconds: wall,
		})
		total.Add(res.Sweep)
		fmt.Fprintf(stderr, "bench %s: %d cells (%d simulated) in %.3fs\n",
			id, res.Sweep.Requested, res.Sweep.Runs, wall)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	rep.Cells = total.Requested
	rep.Runs = sched.Totals().Runs
	if rep.WallSeconds > 0 {
		rep.CellsPerSecond = float64(rep.Runs) / rep.WallSeconds
	}
	sweepPhases := lpnuma.PhaseWallSnapshot()
	rep.setPhases(sweepPhases)
	fmt.Fprintf(stderr, "bench phases: alloc %.3fs, price %.3fs, merge %.3fs, daemon %.3fs\n",
		sweepPhases.AllocSeconds, sweepPhases.PriceSeconds, sweepPhases.MergeSeconds, sweepPhases.DaemonSeconds)

	incRep, err := incrementalBench(*seed)
	if err != nil {
		return err
	}
	incRep.setPhases(phaseDelta(lpnuma.PhaseWallSnapshot(), sweepPhases))
	fmt.Fprintf(stderr, "bench analytic-incremental: %s epoch %.1fµs quiescent vs %.1fµs full recompute (%.1fx)\n",
		incRep.Bench, incRep.Experiments[1].WallSeconds*1e6, incRep.BaselineWallSeconds*1e6, incRep.Speedup)

	enc, err := json.MarshalIndent([]benchReport{rep, incRep}, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench complete: %d simulations on %d workers in %.3fs (%.2f cells/s); wrote %s\n",
		rep.Runs, sched.Workers(), rep.WallSeconds, rep.CellsPerSecond, *out)
	return nil
}
