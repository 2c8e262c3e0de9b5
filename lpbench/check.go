package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/sim"
)

// checkResult applies the sanity checks every simulated cell must pass.
func checkResult(r sim.Result) error {
	switch {
	case r.TimedOut:
		return errors.New("timed out")
	case math.IsNaN(r.RuntimeSeconds) || math.IsInf(r.RuntimeSeconds, 0) || r.RuntimeSeconds <= 0:
		return fmt.Errorf("runtime %v s is not finite and positive", r.RuntimeSeconds)
	case !(r.LARPct >= 0 && r.LARPct <= 100):
		return fmt.Errorf("LAR %v%% outside [0,100]", r.LARPct)
	case math.IsNaN(r.ImbalancePct) || math.IsInf(r.ImbalancePct, 0) || r.ImbalancePct < 0:
		return fmt.Errorf("imbalance %v%% negative or not finite", r.ImbalancePct)
	}
	return nil
}

// digest is a content hash of a result: equal digests mean equal
// results, field for field.
func digest(r sim.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Only non-finite floats fail to encode; checkResult has
		// already counted such a cell as failed.
		b = []byte(fmt.Sprintf("%#v", r))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// goldenSeed is the --seed at which golden.json was recorded. A traced
// run also simulates its cell set at this seed and counts the cells
// whose digest differs (sim.cells_changed): a count, not a failure, so
// a change that deliberately alters the model stays measurable.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → cell key → result digest at goldenSeed.
func golden() (map[string]map[string]string, error) {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// cellsChanged counts the cells whose digest differs from the golden
// digests of the workload, a cell absent from the golden included.
func cellsChanged(workload string, digests map[string]string) (int, error) {
	g, err := golden()
	if err != nil {
		return 0, err
	}
	want := g[workload]
	n := 0
	for k, d := range digests {
		if want[k] != d {
			n++
		}
	}
	return n, nil
}

// writeGolden re-records one workload's golden digests into path,
// keeping the other workloads' entries.
func writeGolden(path string, wl *workload) error {
	g := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	p := runPass(wl.cells(false), goldenSeed, nil)
	if n := p.check(nil, logf); n > 0 {
		return fmt.Errorf("%d cells failed at the golden seed", n)
	}
	g[wl.name] = p.digests()
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
