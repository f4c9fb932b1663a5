// Command benchfmt is the CI allocation gate: it reads `go test -bench
// -benchmem` output and exits non-zero when the named benchmark's allocs/op
// exceeds the budget, so a PR that regresses the zero-allocation protocol
// path fails the build. Allocation counts are deterministic enough to gate
// on where timings are not (performance claims come from bench/).
//
// Usage:
//
//	go test -bench ServerOps -benchmem ./internal/kvserver | go run ./cmd/benchfmt -gate BenchmarkServerOps/shards=1 -max-allocs 48
//	go run ./cmd/benchfmt -gate BenchmarkServerOps/shards=1 -max-allocs 48 bench.txt
//
// Non-benchmark lines are ignored, so raw `go test` output can be piped in
// unfiltered.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string
	Iterations int64
	Metrics    map[string]float64
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		os.Exit(1)
	}
}

func run() error {
	gate := flag.String("gate", "", "benchmark name (GOMAXPROCS suffix stripped) whose allocs/op must not exceed -max-allocs")
	maxAllocs := flag.Float64("max-allocs", 0, "allocs/op budget enforced for -gate")
	flag.Parse()
	if *gate == "" {
		return fmt.Errorf("-gate is required")
	}

	var results []Result
	if flag.NArg() == 0 {
		rs, err := parse(os.Stdin)
		if err != nil {
			return err
		}
		results = rs
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rs, err := parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		results = append(results, rs...)
	}
	return gateAllocs(results, *gate, *maxAllocs)
}

// gateAllocs fails when the named benchmark's allocs/op exceeds budget. The
// benchmark must be present (a renamed or skipped benchmark must not pass
// the gate silently) and must have been run with -benchmem.
func gateAllocs(results []Result, name string, budget float64) error {
	for _, r := range results {
		if r.Name != name {
			continue
		}
		allocs, ok := r.Metrics["allocs/op"]
		if !ok {
			return fmt.Errorf("gate %s: no allocs/op metric (run with -benchmem)", name)
		}
		if allocs > budget {
			return fmt.Errorf("gate %s: %v allocs/op exceeds the budget of %v — the protocol hot path regressed", name, allocs, budget)
		}
		fmt.Fprintf(os.Stderr, "benchfmt: gate %s: %v allocs/op within budget %v\n", name, allocs, budget)
		return nil
	}
	return fmt.Errorf("gate %s: benchmark not found in input", name)
}

// parse extracts benchmark result lines:
//
//	BenchmarkName-8   1234   987 ns/op   12 B/op   3 allocs/op   456 ops/s
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a log line that happens to start with Benchmark
		}
		res := Result{
			Name:       trimGOMAXPROCS(fields[0]),
			Iterations: iters,
			Metrics:    make(map[string]float64),
		}
		// The rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if len(res.Metrics) == 0 {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// trimGOMAXPROCS drops the trailing -N procs suffix go test appends, keeping
// names stable across machines.
func trimGOMAXPROCS(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
