// Command benchmark is the repository's one benchmark: six named
// workloads against a live serve.System, end-to-end metrics from an
// untraced pass and a per-layer budget from a traced one. BENCHMARK.json
// at the repository root is its contract; README.md in this directory
// says what each workload and metric is for.
//
//	go run ./benchmark --workload healthy_read --seed 1 --seconds 9 --trace 0
//	go run ./benchmark --workload healthy_read --seed 1 --seconds 9 --trace 1
//	go run ./benchmark -all -seed 1 -out report.json
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck -workload degraded_read
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 9, "length of the measured window")
		ops       = flag.Int("ops", 0, "measure a fixed number of ops per client instead of -seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		quick     = flag.Bool("quick", false, "shrink every workload (smoke test scale)")
		tmp       = flag.String("tmp", ".bench_build", "directory for temp data, created if missing")
		all       = flag.Bool("all", false, "run every workload, both passes, each in a child process")
		runs      = flag.Int("runs", 1, "with -all: runs per workload and pass, each on its own seed")
		out       = flag.String("out", "", "with -all: write the report here (default stdout)")
		compare   = flag.Bool("compare", false, "compare two -all reports: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run -workload twice on one seed; exact metrics must repeat")
	)
	flag.Parse()
	// The reference machine has as many cores as the benchmark has
	// clients; pin the scheduler to what is there, whatever the
	// environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		err = compareReports(flag.Arg(0), flag.Arg(1))
	case *all:
		err = runAll(*seed, *seconds, *runs, *quick, *tmp, *out)
	case *selfcheck:
		err = selfCheck(*workload, *seed, *quick, *tmp)
	default:
		err = runOne(*workload, *seed, limit{seconds: *seconds, ops: *ops}, *trace != 0, *quick, *tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func newRunConfig(workload string, seed int64, lim limit, trace, quick bool, tmp string) (runConfig, error) {
	sp, err := findSpec(workload, quick)
	if err != nil {
		return runConfig{}, err
	}
	c := runConfig{sp: sp, seed: seed, lim: lim, trace: trace, quick: quick, tmpRoot: tmp, setUps: 3}
	if quick || lim.ops > 0 {
		c.setUps = 1
	}
	return c, nil
}

func (c runConfig) run() (*result, error) {
	if c.trace {
		return runTraced(c)
	}
	return runUntraced(c)
}

// runOne is the contract's entry point: one workload, one pass. It
// prints every metric by name with its unit, an "info" line with sizes
// and sample counts, and last the JSON object the driver reads.
func runOne(workload string, seed int64, lim limit, trace, quick bool, tmp string) error {
	c, err := newRunConfig(workload, seed, lim, trace, quick, tmp)
	if err != nil {
		return err
	}
	res, err := c.run()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		return err
	}
	fmt.Printf("info %s\n", info)
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return nil
}
