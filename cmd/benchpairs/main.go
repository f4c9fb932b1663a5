// Command benchpairs runs the repository's benchmark as alternating
// parent/change pairs and prints what a performance claim needs: per metric,
// each side's median [q1, q3], the pairs the change won with the exact
// one-sided sign-test p over the pairs that did not tie, and the CHANGES.md
// table row. It edits nothing under bench/ — it only runs bench/run.sh, once
// in this working tree (the change) and once in a pristine copy of the parent
// commit extracted under the git-ignored .bench_build/.
//
//	go run ./cmd/benchpairs -parent HEAD -workload get_hot -n 10
//	make bench-pairs PARENT=HEAD WORKLOAD=get_hot N=10
//
// Pair i runs both sides with seed seed0+i-1. Which side runs first is a
// shuffle seeded by seed0 that puts the parent first in ⌊n/2⌋ pairs, printed
// with each pair, so drift across a series lands on neither side by
// construction (a fixed P C | C P schedule gave the parent the first and last
// run of every series). Run length is the benchmark's own (no
// --seconds is passed, so bench/run.sh's default governs; for a short smoke
// run call bench/run.sh directly). Every run has a time limit, so the
// open-loop wedge (driver and server both blocked in write) fails loudly
// instead of hanging. A run that times out, exits non-zero, or whose last
// stdout line is not {"correct":true,"failed":0,…} is reported and not
// counted, and neither is its pair; the exit code is then non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit is the time limit of one run: set-up, the measured seconds and
// the read-back take about 40 s, so a run still going after this is wedged.
const runLimit = 5 * time.Minute

// metricDef is one BENCHMARK.json metric declaration.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		parent   = flag.String("parent", "HEAD", "git ref of the parent commit")
		workload = flag.String("workload", "get_hot", "benchmark workload")
		n        = flag.Int("n", 10, "pairs to run")
		seed0    = flag.Int64("seed0", 1, "seed of the first pair; pair i uses seed0+i-1")
		trace    = flag.Int("trace", 0, "passed to the benchmark: 1 compares the per-layer metrics of traced runs")
	)
	flag.Parse()
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse --show-toplevel: %w", err)
	}
	root := strings.TrimSpace(string(top))
	defs, err := readDefs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	parentDir := filepath.Join(root, ".bench_build", "pairs", "parent")
	if err := extract(root, *parent, parentDir); err != nil {
		return err
	}
	trees := map[string]string{"parent": parentDir, "change": root}
	args := []string{"bench/run.sh", "--workload", *workload, "--trace", fmt.Sprint(*trace)}

	values := map[string]map[string][]float64{"parent": {}, "change": {}}
	var refused []string
	counted := 0
	parentFirst := pairOrder(*n, *seed0)
	for i := 1; i <= *n; i++ {
		seed := *seed0 + int64(i) - 1
		order := []string{"change", "parent"}
		if parentFirst[i-1] {
			order = []string{"parent", "change"}
		}
		fmt.Printf("pair %d seed %d order %s\n", i, seed, strings.Join(order, ", "))
		pair := map[string]result{}
		for _, side := range order {
			res, err := runOnce(trees[side], append(args, "--seed", fmt.Sprint(seed)))
			if err != nil {
				msg := fmt.Sprintf("pair %d seed %d %s: %v", i, seed, side, err)
				fmt.Println("NOT COUNTED:", msg)
				refused = append(refused, msg)
				break // the pair cannot count; do not spend a run on its other half
			}
			pair[side] = res
			fmt.Printf("pair %d seed %d %-6s %s\n", i, seed, side, describe(res, defs))
		}
		if len(pair) < 2 {
			continue
		}
		counted++
		for side, res := range pair {
			for name, m := range res.Metrics {
				values[side][name] = append(values[side][name], m.Value)
			}
		}
	}

	fmt.Printf("\n%s, %d of %d pairs counted (parent %s, seeds %d–%d, --trace %d): parent → change, median [q1, q3]\n",
		*workload, counted, *n, *parent, *seed0, *seed0+int64(*n)-1, *trace)
	row := "| `" + *workload + "` |"
	for _, d := range defs {
		p, c := values["parent"][d.Name], values["change"][d.Name]
		if len(p) == 0 || len(p) != len(c) {
			continue
		}
		cell := compare(d, p, c)
		fmt.Printf("%-32s %s\n", d.Name, cell)
		row += " " + cell + " |"
	}
	fmt.Println("\nCHANGES.md row (columns in the order above):")
	fmt.Println(row)
	if len(refused) > 0 {
		return fmt.Errorf("%d run(s) not counted:\n  %s", len(refused), strings.Join(refused, "\n  "))
	}
	return nil
}

// pairOrder reports, for each of n pairs, whether the parent runs first: a
// shuffle, seeded by seed, of ⌊n/2⌋ parent-first and n-⌊n/2⌋ change-first
// slots.
func pairOrder(n int, seed int64) []bool {
	first := make([]bool, n)
	for i := 0; i < n/2; i++ {
		first[i] = true
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { first[i], first[j] = first[j], first[i] })
	return first
}

// signP is the exact one-sided sign-test p of won wins in decided untied
// pairs: the chance of at least won heads in decided fair coin flips.
func signP(won, decided int) float64 {
	tail := new(big.Int)
	for k := won; k <= decided; k++ {
		tail.Add(tail, new(big.Int).Binomial(int64(decided), int64(k)))
	}
	p, _ := new(big.Rat).SetFrac(tail, new(big.Int).Lsh(big.NewInt(1), uint(decided))).Float64()
	return p
}

// readDefs returns BENCHMARK.json's metrics, end-to-end first.
func readDefs(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return append(f.EndToEnd, f.PerLayer...), nil
}

// extract replaces dir with the committed files of ref. Go's build cache
// under dir/.bench_build is kept so only the first run pays the build.
func extract(root, ref, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		if e.Name() == ".bench_build" {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "-C", root, "archive", "--format=tar", ref)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar -x: %w", err)
	}
	return nil
}

// runOnce runs the benchmark in tree, killing its whole process group (the
// driver and the server it started) at runLimit, and returns the parsed
// last line only if the run is one a claim may count.
func runOnce(tree string, args []string) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = tree
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		return result{}, fmt.Errorf("WEDGED: no result after %v, killed", runLimit)
	}
	if err != nil {
		return result{}, fmt.Errorf("%w: %s", err, lastLine(stderr.Bytes()))
	}
	return parseResult(stdout.Bytes())
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// parseResult accepts only a run whose every reply checked out.
func parseResult(stdout []byte) (result, error) {
	last := lastLine(stdout)
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("last stdout line is not the result object: %q", last)
	}
	if !res.Correct || res.Failed != 0 {
		return result{}, fmt.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	return res, nil
}

// describe renders one run's metrics in BENCHMARK.json order.
func describe(res result, defs []metricDef) string {
	var parts []string
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			parts = append(parts, d.Name+"="+num(m.Value))
		}
	}
	return strings.Join(parts, " ")
}

// quartiles returns q1, the median and q3 by linear interpolation.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// compare renders one metric's table cell from paired samples (parent[i] and
// change[i] ran with the same seed): both sides' median [q1, q3], pairs won
// (ties count for neither), the sign-test p of that count over the untied
// pairs, and the verdict under the repository's rules —
// "identical" when every pair tied to the last digit (what a count must do
// before a claim may rest on it), "gain" when at least ten pairs ran, the
// change won nine tenths of all of them (a tie is not a win) and the medians
// differ by more than the parent's inter-quartile distance, "WORSE" when the change's median
// is worse than the parent's by more than the metric's bound.
func compare(d metricDef, parent, change []float64) string {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	won, decided := 0, 0
	for i := range parent {
		if parent[i] != change[i] {
			decided++
			if better(change[i], parent[i]) {
				won++
			}
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	cell := fmt.Sprintf("%s [%s, %s] → %s [%s, %s], %d/%d p=%.4g", num(pm), num(pq1), num(pq3), num(cm), num(cq1), num(cq3), won, len(parent), signP(won, decided))
	diff := cm - pm
	if diff < 0 {
		diff = -diff
	}
	switch {
	case decided == 0:
		cell += " (identical)"
	case len(parent) >= 10 && better(cm, pm) && 10*won >= 9*len(parent) && diff > pq3-pq1:
		cell += " (gain)"
	case d.Bound > 0 && better(pm, cm) && diff > d.Bound*pm:
		cell += " (WORSE beyond bound)"
	}
	return cell
}

// num prints a metric value compactly: thousands as 454.7k, the rest to four
// significant digits.
func num(v float64) string {
	if v >= 10000 {
		return fmt.Sprintf("%.1fk", v/1000)
	}
	return fmt.Sprintf("%.4g", v)
}
