package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsPrintNamedMetrics runs every workload at tiny size, once
// untraced and once traced, and checks that the result line carries
// exactly the metrics BENCHMARK.json names, each with its unit, and no
// failed operation.
func TestWorkloadsPrintNamedMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		wl := workloadList[i]
		if wl.name != w.Name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, wl.name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			out, err := wl.run(options{seed: 3, seconds: 0.01, trace: traced, tiny: true, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.name, traced, err)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(out.report(traced)); err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", wl.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", wl.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s in %q, BENCHMARK.json says %q", wl.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, got.Value)
				}
			}
		}
	}
}

func goodResult() sim.Result {
	return sim.Result{Workload: "CG.D", Policy: "THP", Machine: "B", RuntimeSeconds: 2.5, Epochs: 50,
		LARPct: 40, ImbalancePct: 12}
}

// TestCorruptedResultIsFailure checks that every sanity violation, and a
// result that differs from the same cell's reference, counts as a failed
// cell.
func TestCorruptedResultIsFailure(t *testing.T) {
	if err := checkResult(goodResult()); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*sim.Result){
		"timed out":          func(r *sim.Result) { r.TimedOut = true },
		"zero runtime":       func(r *sim.Result) { r.RuntimeSeconds = 0 },
		"NaN runtime":        func(r *sim.Result) { r.RuntimeSeconds = math.NaN() },
		"LAR above 100":      func(r *sim.Result) { r.LARPct = 100.5 },
		"negative LAR":       func(r *sim.Result) { r.LARPct = -1 },
		"negative imbalance": func(r *sim.Result) { r.ImbalancePct = -0.1 },
		"infinite imbalance": func(r *sim.Result) { r.ImbalancePct = math.Inf(1) },
	} {
		r := goodResult()
		corrupt(&r)
		p := pass{cells: []cellRun{{res: r}}}
		if got := p.check(nil, t.Logf); got != 1 {
			t.Errorf("%s: %d failed cells, want 1", name, got)
		}
	}

	ref := pass{cells: []cellRun{{res: goodResult()}, {res: goodResult()}}}
	moved := goodResult()
	moved.Counters.RemoteDRAM++
	p := pass{cells: []cellRun{{res: goodResult()}, {res: moved}}}
	if got := p.check(&ref, t.Logf); got != 1 {
		t.Errorf("result differing from its reference: %d failed cells, want 1", got)
	}
	if digest(moved) == digest(goodResult()) {
		t.Error("digest does not tell a changed result from the original")
	}
}

// TestServeFailuresAreCounted checks that a non-2xx answer (429
// included) and a 200 whose result disagrees with the direct result
// both count as failed requests.
func TestServeFailuresAreCounted(t *testing.T) {
	direct := goodResult()
	wrong := direct
	wrong.LARPct++
	answers := map[string]func(w http.ResponseWriter){
		"429": func(w http.ResponseWriter) { http.Error(w, "saturated", http.StatusTooManyRequests) },
		"500": func(w http.ResponseWriter) { http.Error(w, "boom", http.StatusInternalServerError) },
		"disagreeing result": func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(serve.RunResponse{Result: wrong, Cached: true})
		},
		"agreeing result": func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(serve.RunResponse{Result: direct, Cached: true})
		},
	}
	for name, answer := range answers {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { answer(w) }))
		ops := make([]op, 6)
		for i := range ops {
			ops[i] = op{kind: kindRead, path: "/v1/run", body: []byte(`{}`), want: []sim.Result{direct}}
		}
		p := runServePass(srv.Client(), srv.URL, ops, nil, t.Logf)
		srv.Close()
		want := len(ops)
		if strings.HasPrefix(name, "agreeing") {
			want = 0
		}
		if p.failed != want {
			t.Errorf("%s: %d failed requests, want %d", name, p.failed, want)
		}
	}
}

// TestGoldenCoversEveryCell checks that golden.json records a digest for
// every cell of every workload's full-size cell set.
func TestGoldenCoversEveryCell(t *testing.T) {
	g, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadList {
		cells := wl.cells(false)
		if len(g[wl.name]) != len(cells) {
			t.Errorf("%s: golden.json has %d digests, the workload %d cells", wl.name, len(g[wl.name]), len(cells))
		}
		for _, c := range cells {
			if _, ok := g[wl.name][c.key()]; !ok {
				t.Errorf("%s: golden.json lacks cell %s", wl.name, c.key())
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "churn", "--trace", "2"},
		{"--workload", "churn", "--seconds", "0"},
		{"--workload", "churn", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}
