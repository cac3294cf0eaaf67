// Command benchdiff is the paired benchmark procedure as one command:
// it measures a base commit and the working tree with the repository's
// benchmark (./benchmark), run by run, alternating which side goes
// first, and then prints the benchmark's own -compare verdicts and how
// many of the pairs each side won. It is tooling and regenerates no row
// of the map in the root package doc (doc.go).
//
//	benchdiff -base <ref> [-runs 10] [-quick]     (make benchdiff BASE=<ref>)
//
// The base is extracted with `git archive` into a temp dir, so the
// work tree and .git are left alone; both sides are built once, from
// their own sources. A performance claim holds when the change wins at
// least nine of ten pairs and the medians differ by more than the
// spread of the base's own runs (-compare prints both spreads).
//
// Why this is more than `-all -runs 10` on each side: that runs one
// side's ten runs back to back, and the paired rule wants base and
// change interleaved, run i against run i. So every run here is one
// `-all -runs 1` of a side's binary on the pair's seed, at the
// benchmark's own window length, and the single-run reports are merged
// into the one-report-per-side shape -compare reads. The merge and the
// pairs-won count belong in ./benchmark (its report schema is restated
// here, strictly: a key this file does not know is an error); that
// directory is frozen for the change that added this command.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	base := flag.String("base", "", "git ref to compare the working tree against")
	runs := flag.Int("runs", 10, "pairs of runs, one seed each")
	quick := flag.Bool("quick", false, "smoke-test scale (the benchmark's -quick): checks the procedure, measures nothing")
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -base <ref> [-runs N] [-quick]")
		os.Exit(2)
	}
	if err := run(*base, *runs, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd
}

// side is one of the two trees being measured.
type side struct {
	name, dir, bin string
	reports        []string
}

func run(base string, runs int, quick bool) error {
	tmp, err := os.MkdirTemp("", "benchdiff-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	baseDir := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseDir, 0o755); err != nil {
		return err
	}
	tarball := filepath.Join(tmp, "base.tar")
	if err := command(wd, "git", "archive", "-o", tarball, base).Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", base, err)
	}
	if err := command(baseDir, "tar", "-xf", tarball).Run(); err != nil {
		return err
	}
	sides := []*side{{name: "base", dir: baseDir}, {name: "change", dir: wd}}
	for _, s := range sides {
		s.bin = filepath.Join(tmp, s.name+".bin")
		if err := command(s.dir, "go", "build", "-o", s.bin, "./benchmark").Run(); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}
	for r := 0; r < runs; r++ {
		// Alternate which side goes first, so drift of the host over the
		// session (thermal, neighbours, page cache) lands on both.
		order := []*side{sides[r%2], sides[1-r%2]}
		for _, s := range order {
			out := filepath.Join(tmp, fmt.Sprintf("%s-%02d.json", s.name, r))
			fmt.Fprintf(os.Stderr, "== pair %d/%d: %s\n", r+1, runs, s.name)
			// Each side runs in its own tree: the benchmark refuses a
			// directory without go.mod and keeps its temp data under it.
			args := []string{"-all", "-runs", "1", "-seed", fmt.Sprint(r + 1),
				"-tmp", filepath.Join(tmp, s.name+"-data"), "-out", out}
			if quick {
				args = append(args, "-quick")
			}
			if err := command(s.dir, s.bin, args...).Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", s.name, r+1, err)
			}
			s.reports = append(s.reports, out)
		}
	}
	merged := make([]string, len(sides))
	all := make([]*report, len(sides))
	for i, s := range sides {
		if all[i], err = mergeReports(s.reports); err != nil {
			return err
		}
		merged[i] = filepath.Join(tmp, s.name+".json")
		raw, err := json.MarshalIndent(all[i], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(merged[i], raw, 0o644); err != nil {
			return err
		}
	}
	metrics, err := contractMetrics(wd)
	if err != nil {
		return err
	}
	if err := printPairs(all[0], all[1], metrics); err != nil {
		return err
	}
	return command(wd, sides[1].bin, "-compare", merged[0], merged[1]).Run()
}

// report is the benchmark's -all report (benchmark/report.go). Only the
// fields the merge touches are typed; the rest pass through verbatim.
type report struct {
	Env       json.RawMessage `json:"environment"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"window_seconds"`
	Runs      int             `json:"runs"`
	Workloads []*workload     `json:"workloads"`
}

type workload struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	Untraced  json.RawMessage      `json:"untraced_run"`
	Traced    json.RawMessage      `json:"traced_run"`
}

// mergeReports folds single-run -all reports into one: per workload the
// metric value lists are concatenated in run order (so index i of every
// list is pair i), attempted and failed are summed, and everything else
// is the first report's. It refuses what it does not fully understand:
// a key unknown to the types above, or runs that differ in window,
// workloads or metrics.
func mergeReports(paths []string) (*report, error) {
	var merged *report
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		rep := &report{}
		if err := dec.Decode(rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Runs != 1 || len(rep.Workloads) == 0 {
			return nil, fmt.Errorf("%s: %d runs of %d workloads, want one run of some", path, rep.Runs, len(rep.Workloads))
		}
		if merged == nil {
			merged = rep
			continue
		}
		if len(rep.Workloads) != len(merged.Workloads) || rep.Seconds != merged.Seconds {
			return nil, fmt.Errorf("%s: %d workloads of %gs, earlier runs had %d of %gs",
				path, len(rep.Workloads), rep.Seconds, len(merged.Workloads), merged.Seconds)
		}
		merged.Runs++
		for i, w := range rep.Workloads {
			into := merged.Workloads[i]
			if w.Name != into.Name {
				return nil, fmt.Errorf("%s: workload %d is %s, earlier runs had %s", path, i, w.Name, into.Name)
			}
			into.Attempted += w.Attempted
			into.Failed += w.Failed
			for _, set := range []struct{ dst, src map[string][]float64 }{{into.EndToEnd, w.EndToEnd}, {into.PerLayer, w.PerLayer}} {
				for metric, vals := range set.src {
					if _, ok := set.dst[metric]; !ok {
						return nil, fmt.Errorf("%s: %s metric %s is new in this run", path, w.Name, metric)
					}
					set.dst[metric] = append(set.dst[metric], vals...)
				}
			}
		}
	}
	// One value per run of every metric: a run that dropped a metric
	// (or reported it twice) leaves a list of another length.
	for _, w := range merged.Workloads {
		if len(w.EndToEnd) == 0 || len(w.PerLayer) == 0 {
			return nil, fmt.Errorf("%s: no end_to_end or no per_layer metrics", w.Name)
		}
		for _, set := range []map[string][]float64{w.EndToEnd, w.PerLayer} {
			for metric, vals := range set {
				if len(vals) != len(paths) {
					return nil, fmt.Errorf("%s %s: %d values over %d runs", w.Name, metric, len(vals), len(paths))
				}
			}
		}
	}
	return merged, nil
}

// endToEndMetric is one end-to-end metric of the benchmark's contract
// and which way it improves.
type endToEndMetric struct{ Name, Better string }

// contractMetrics reads the end-to-end metrics from BENCHMARK.json.
func contractMetrics(root string) ([]endToEndMetric, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var contract struct {
		EndToEnd []endToEndMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		return nil, err
	}
	if len(contract.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json names no end_to_end metrics")
	}
	return contract.EndToEnd, nil
}

// printPairs prints, per workload and end-to-end metric, how many pairs
// the change won and lost (ties count for neither).
func printPairs(base, change *report, metrics []endToEndMetric) error {
	fmt.Println("pairs won by the change / by the base (run i against run i):")
	for i, bw := range base.Workloads {
		if i >= len(change.Workloads) || change.Workloads[i].Name != bw.Name {
			return fmt.Errorf("workload %d (%s) is not the change's workload %d", i, bw.Name, i)
		}
		fmt.Println(bw.Name)
		for _, m := range metrics {
			bv, cv := bw.EndToEnd[m.Name], change.Workloads[i].EndToEnd[m.Name]
			if len(bv) == 0 || len(bv) != len(cv) {
				return fmt.Errorf("%s %s: %d base values, %d of the change", bw.Name, m.Name, len(bv), len(cv))
			}
			won, lost := 0, 0
			for r := range bv {
				d := cv[r] - bv[r]
				if m.Better == "lower" {
					d = -d
				}
				switch {
				case d > 0:
					won++
				case d < 0:
					lost++
				}
			}
			fmt.Printf("  %-14s %2d / %-2d\n", m.Name, won, lost)
		}
	}
	return nil
}
