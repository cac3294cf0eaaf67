package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// environment is recorded with every report: numbers from different
// machines or commits are not comparable, and the report says which
// they came from.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Fsync      string `json:"fsync_policy"`
	Clients    int    `json:"clients"`
	When       string `json:"generated_at"`
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// gitCommit asks git; outside a work tree (the driver's checkout is
// not one) the commit is simply unknown.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func currentEnvironment() environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), Commit: gitCommit(), Fsync: fsyncPolicy.String(), Clients: clients,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// report is what -all writes and -compare reads: per workload, every
// value of every metric, one per run, so a reader can recompute
// medians and spreads.
type report struct {
	Env       environment      `json:"environment"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"window_seconds"`
	Runs      int              `json:"runs"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	Untraced  runInfo              `json:"untraced_run"`
	Traced    runInfo              `json:"traced_run"`
}

// runChild runs one workload pass in a fresh process of this same
// binary, so no workload inherits another's heap, page cache state or
// resident-set high-water mark.
func runChild(workload string, seed int64, seconds float64, trace, quick bool, tmp string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--tmp", tmp, "--trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
	}
	if quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace=%v): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	res := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	for _, line := range lines {
		if rest, ok := bytes.CutPrefix(line, []byte("info ")); ok {
			if err := json.Unmarshal(rest, &res.info); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func runAll(seed int64, seconds float64, runs int, quick bool, tmp, out string) error {
	rep := report{Env: currentEnvironment(), Seed: seed, Seconds: seconds, Runs: runs}
	for _, sp := range specs {
		wr := workloadReport{Name: sp.Name, Why: sp.Why, EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		for r := 0; r < runs; r++ {
			for _, trace := range []bool{false, true} {
				res, err := runChild(sp.Name, seed+int64(r), seconds, trace, quick, tmp)
				if err != nil {
					return err
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				into := wr.EndToEnd
				if trace {
					into, wr.Traced = wr.PerLayer, res.info
				} else {
					wr.Untraced = res.info
				}
				for name, m := range res.Metrics {
					into[name] = append(into[name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "%s seed %d trace %v: %d ops, %d failed\n", sp.Name, seed+int64(r), trace, res.Attempted, res.Failed)
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if out == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// spread is the distance between the quartiles as a share of the
// median; unknown (0) below four values.
func spread(vals []float64) float64 {
	if len(vals) < 4 {
		return 0
	}
	return ratio(stats.Percentile(vals, 75)-stats.Percentile(vals, 25), math.Abs(stats.Median(vals)))
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(d metricDef, a, b float64) float64 {
	change := ratio(b-a, math.Abs(a))
	if d.Better == "higher" {
		return -change
	}
	return change
}

// compareReports prints, per workload and end-to-end metric, the
// change against the metric's bound, then the per-layer metrics that
// moved most — where to look for the cause. It fails on any "worse".
func compareReports(oldPath, newPath string) error {
	older, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newer, err := readReport(newPath)
	if err != nil {
		return err
	}
	byName := map[string]workloadReport{}
	for _, w := range newer.Workloads {
		byName[w.Name] = w
	}
	worse := 0
	for _, ow := range older.Workloads {
		nw, ok := byName[ow.Name]
		if !ok {
			fmt.Printf("%s: missing from %s\n", ow.Name, newPath)
			continue
		}
		fmt.Printf("%s\n", ow.Name)
		for _, d := range endToEnd {
			a, b := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := stats.Median(a), stats.Median(b)
			w := worsening(d, ma, mb)
			verdict := "same"
			switch {
			case spread(a) > d.Bound || spread(b) > d.Bound:
				verdict = "unresolved"
			case w > d.Bound:
				verdict = "worse"
				worse++
			case w < -d.Bound:
				verdict = "better"
			}
			fmt.Printf("  %-14s %12.5g -> %12.5g %-5s %+7.1f%% (bound %.0f%%, spread %.1f%%/%.1f%%)  %s\n",
				d.Name, ma, mb, d.Unit, 100*ratio(mb-ma, math.Abs(ma)),
				100*d.Bound, 100*spread(a), 100*spread(b), verdict)
		}
		type moved struct {
			d    metricDef
			a, b float64
		}
		var moves []moved
		for _, d := range perLayer {
			a, b := ow.PerLayer[d.Name], nw.PerLayer[d.Name]
			if len(a) == 0 || len(b) == 0 || stats.Median(a) == stats.Median(b) {
				continue
			}
			moves = append(moves, moved{d, stats.Median(a), stats.Median(b)})
		}
		sort.Slice(moves, func(i, j int) bool {
			return math.Abs(worsening(moves[i].d, moves[i].a, moves[i].b)) > math.Abs(worsening(moves[j].d, moves[j].a, moves[j].b))
		})
		for i, mv := range moves {
			if i == 8 {
				break
			}
			dir := "better"
			if worsening(mv.d, mv.a, mv.b) > 0 {
				dir = "worse"
			}
			fmt.Printf("    layer %-38s %12.5g -> %12.5g %-6s %+7.1f%%  %s\n",
				mv.d.Name, mv.a, mv.b, mv.d.Unit, 100*ratio(mv.b-mv.a, math.Abs(mv.a)), dir)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics worse than their bound", worse)
	}
	return nil
}

// selfCheckOps is the fixed op count of a -selfcheck run.
const selfCheckOps = 40

// selfCheck runs the traced pass of one workload twice on one seed
// with a fixed op count and fails unless every exact metric — ratios
// of byte and RPC counts — and the op count repeat bit for bit. A
// count that drifts between identical runs cannot carry a claim.
func selfCheck(workload string, seed int64, quick bool, tmp string) error {
	if workload == "" {
		workload = "degraded_read"
	}
	c, err := newRunConfig(workload, seed, limit{ops: selfCheckOps}, true, quick, tmp)
	if err != nil {
		return err
	}
	first, err := c.run()
	if err != nil {
		return err
	}
	second, err := c.run()
	if err != nil {
		return err
	}
	diffs := 0
	if first.Attempted != second.Attempted || first.Failed != second.Failed {
		fmt.Printf("ops: %d/%d failed vs %d/%d failed\n", first.Failed, first.Attempted, second.Failed, second.Attempted)
		diffs++
	}
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
		mark := "=="
		if a != b {
			mark = "!="
			diffs++
		}
		fmt.Printf("%-40s %18.10g %s %-18.10g %s\n", d.Name, a, mark, b, d.Unit)
	}
	if diffs > 0 {
		return fmt.Errorf("%s: %d exact metrics differ between two runs of seed %d", workload, diffs, seed)
	}
	fmt.Printf("%s: every exact metric repeats over %d ops\n", workload, first.Attempted)
	return nil
}
