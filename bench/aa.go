package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, the one place they are written down.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range file.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// selfCheck runs the same code n times, each run on its own seed, deals
// the runs alternately into two sets and compares the sets' medians: what
// the driver does before it accepts the benchmark. It fails when two sets
// of identical code disagree by more than half a metric's bound, or when
// the runs' interquartile spread reaches a third of it (set-up time, whose
// spread the driver does not gate, excepted).
func selfCheck(binary string, names []string, seed int64, seconds float64, n int) int {
	bound, err := bounds()
	if err != nil {
		die(1, "%v", err)
	}
	values := map[string][]float64{} // "<workload>/<metric>" → one value per run
	code := 0
	for i := 0; i < n; i++ {
		results, err := runLive(binary, names, seed+int64(i), seconds, setups)
		if err != nil {
			die(1, "run %d: %v", i, err)
		}
		for _, res := range results {
			if res.failed > 0 {
				fmt.Printf("run %d: %s: %d of %d ops failed: %v\n", i, res.workload, res.failed, res.attempted, res.failures)
				code = 1
			}
			for _, name := range endToEnd {
				id := res.workload + "/" + name
				values[id] = append(values[id], res.metrics[name])
			}
		}
		fmt.Fprintf(os.Stderr, "bench: run %d of %d done\n", i+1, n)
	}
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("%-30s %12s %12s %7s %7s %6s\n", "metric", "median A", "median B", "gap", "spread", "bound")
	for _, id := range ids {
		var a, b []float64
		for i, v := range values[id] {
			if i%2 == 0 {
				a = append(a, v)
			} else {
				b = append(b, v)
			}
		}
		name := filepath.Base(id)
		ma, mb := median(a), median(b)
		gap := (mb - ma) / ma
		if gap < 0 {
			gap = -gap
		}
		sp := spread(values[id])
		verdict := ""
		if gap > bound[name]/2 {
			verdict = "  GAP OVER HALF THE BOUND"
			code = 1
		}
		if name != "setup_s" && sp > bound[name]/3 {
			verdict += "  SPREAD OVER A THIRD OF THE BOUND"
			code = 1
		}
		fmt.Printf("%-30s %12.4f %12.4f %7.4f %7.4f %6.2f%s\n", id, ma, mb, gap, sp, bound[name], verdict)
	}
	return code
}
