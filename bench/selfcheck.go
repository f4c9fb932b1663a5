package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the self-check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// SelfCheck runs every workload twice with seed and once with seed+1,
// prints each end-to-end metric's values, the same-seed pair's relative
// difference and the metric's bound, and fails if a same-seed pair differs
// by more than its bound — or at all, for the deterministic cost_miss_ratio
// and miss_rate of a traced run.
func SelfCheck(cfg Config, specs []Spec, seed int64, benchmarkPath string) error {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	bad := 0
	for _, sp := range specs {
		var runs [3]Result
		for i, s := range []int64{seed, seed, seed + 1} {
			cfg.Spec, cfg.Seed = sp, s
			if runs[i], err = Run(cfg); err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.Name, s, err)
			}
			if !runs[i].Correct || len(runs[i].Invalid) > 0 {
				bad++
			}
		}
		fmt.Fprintf(cfg.Log, "selfcheck %s: %-22s %14s %14s %14s %9s %7s\n", sp.Name, "metric",
			fmt.Sprintf("seed %d", seed), fmt.Sprintf("seed %d", seed), fmt.Sprintf("seed %d", seed+1), "rel.diff", "bound")
		check := func(name string, bound float64) {
			a, b, c := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value, runs[2].Metrics[name].Value
			diff := 0.0
			if a != b {
				diff = math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			}
			verdict := "ok"
			if diff > bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(cfg.Log, "selfcheck %s: %-22s %14.4f %14.4f %14.4f %8.2f%% %6.1f%% %s\n",
				sp.Name, name, a, b, c, 100*diff, 100*bound, verdict)
		}
		if cfg.Trace {
			check("cost_miss_ratio", 0)
			check("miss_rate", 0)
			continue
		}
		for _, m := range bj.EndToEnd {
			check(m.Name, m.Bound)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d check(s) failed", bad)
	}
	return nil
}
