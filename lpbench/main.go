// Command lpbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in a fresh process, checks every output
// it produces, and prints one JSON result object as the last line of
// standard output:
//
//	lpbench --workload churn --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (host wall
// time of a pass, set-up time, peak RSS, request throughput and
// latency). With --trace 1 the process instead makes one untraced and
// one traced pass and reports the per-layer metrics: phase attribution
// of every cell's RunContext, fault and daemon counts, and the
// workload's layer probes. Spans are kept in memory and written to
// .bench_build/trace/ at exit. LAYERS.md lists which end-to-end metric
// each layer metric should move, and on which workload.
//
// run.sh builds this package from the checkout's source and runs it;
// it is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's single line of machine-readable output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the tables below are the
// benchmark's whole vocabulary and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.new_s", "s"},
	{"sim.alloc_s", "s"},
	{"sim.price_s", "s"},
	{"sim.merge_s", "s"},
	{"sim.daemon_s", "s"},
	{"sim.other_s", "s"},
	{"sim.epochs", "count"},
	{"sim.quiet_epochs", "count"},
	{"sim.us_per_epoch", "us"},
	{"sim.cells_changed", "count"},
	{"vm.faults_4k", "count"},
	{"vm.faults_2m", "count"},
	{"vm.faults_1g", "count"},
	{"ibs.samples", "count"},
	{"policy.overhead_cycles", "cycles"},
	{"mem.alloc_run_ns", "ns"},
	{"mem.free_run_ns", "ns"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"runcache.recover_s", "s"},
	{"runcache.records", "count"},
	{"runcache.hit_us", "us"},
	{"runcache.put_us", "us"},
	{"runcache.runs", "count"},
	{"runcache.hit_ratio", "ratio"},
	{"serve.handler_us", "us"},
	{"serve.shed", "count"},
	{"trace.overhead_frac", "ratio"},
}

// outcome is what one workload run measured. Values holds the metrics
// the workload produces; every other metric of the selected table is
// reported as 0 (the layer does no work on this workload).
type outcome struct {
	attempted, failed int
	// broken records a check that is not an operation of its own: phase
	// attribution that does not add up.
	broken bool
	values map[string]float64
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = map[string]float64{}
	}
	o.values[name] = v
}

// options are one run's parameters. tiny shrinks every workload to
// seconds of work for the package's own tests.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool
	// workDir holds the run's scratch files and, under trace/, the span
	// file of a traced run.
	workDir string
}

type workload struct {
	name string
	run  func(opts options) (outcome, error)
	// cells is the cell set golden.json records digests of.
	cells func(tiny bool) []cellSpec
}

var workloadList = []workload{
	simWorkload("churn", churnCells, true),
	simWorkload("paper-sampled", paperSampledCells, false),
	simWorkload("fullscale-analytic", fullscaleCells, false),
	{name: "serve-mixed", run: runServeMixed, cells: func(tiny bool) []cellSpec { return serveSizeFor(tiny).cells }},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (churn, paper-sampled, fullscale-analytic, serve-mixed)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	recordGolden := fs.String("record-golden", "", "write the workload's result digests at the golden seed to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: lpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "lpbench: unknown workload %q\n", *name)
		return 2
	}
	if *recordGolden != "" {
		if err := writeGolden(*recordGolden, wl); err != nil {
			fmt.Fprintln(stderr, "lpbench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "lpbench: workload %s seed %d, host nproc=%d GOMAXPROCS=%d %s\n",
		wl.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: ".bench_build"}
	out, err := wl.run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "lpbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(out.report(opts.trace)); err != nil {
		fmt.Fprintln(stderr, "lpbench:", err)
		return 1
	}
	return 0
}

// report renders the outcome as the result line: every metric of the
// table the run mode selects, by name with its unit.
func (o outcome) report(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && !o.broken,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	return res
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
