// Command campbench is the repository's benchmark: it builds cmd/campsrv,
// runs it as a separate process, drives it over loopback, checks every
// reply and prints every metric by name with its unit. See ../../README.md.
//
//	go run ./cmd/campbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"camp/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four): "+names())
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 20, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = the separate traced run that prints the per-layer metrics and writes bench/out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice with -seed and once with -seed+1 and compare each metric with its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	// One driver thread: the other core is the server's.
	runtime.GOMAXPROCS(1)

	root, err := repoRoot()
	if err != nil {
		return err
	}
	bin, err := bench.BuildServer(root)
	if err != nil {
		return err
	}
	specs := bench.Specs
	if *workload != "" {
		sp, err := bench.SpecByName(*workload)
		if err != nil {
			return err
		}
		specs = []bench.Spec{sp}
	}
	cfg := bench.Config{Root: root, ServerBin: bin, Seconds: *seconds, Trace: *trace != 0, Log: os.Stdout}
	cfg.Pinned = bench.PinDriver()
	if *selfcheck {
		return bench.SelfCheck(cfg, specs, *seed, filepath.Join(root, "BENCHMARK.json"))
	}
	var failed []string
	for _, sp := range specs {
		cfg.Spec, cfg.Seed = sp, *seed
		res, err := bench.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			failed = append(failed, fmt.Sprintf("%s: %d of %d operations failed", sp.Name, res.Failed, res.Attempted))
		}
		for _, why := range res.Invalid {
			failed = append(failed, sp.Name+": invalid: "+why)
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func names() string {
	var n []string
	for _, sp := range bench.Specs {
		n = append(n, sp.Name)
	}
	return strings.Join(n, ", ")
}

// repoRoot walks up from the working directory to the go.mod of module
// camp, whose cmd/campsrv the benchmark builds.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module camp\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the camp repository (no go.mod of module camp above the working directory)")
		}
		dir = parent
	}
}
