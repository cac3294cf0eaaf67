package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	sp      spec
	seed    int64
	lim     limit
	trace   bool
	quick   bool
	tmpRoot string
	// setUps is how many times the untraced pass sets the system up;
	// setup_s is their median, the window runs on the last.
	setUps int
}

// runInfo is the sizing and sample-count record printed beside the
// metrics (the "info" line) and kept in the -all report.
type runInfo struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	Clients       int     `json:"clients"`
	Files         int     `json:"files"`
	BlocksPerFile int     `json:"blocks_per_file"`
	BlockBytes    int64   `json:"block_bytes"`
	SetBytes      int64   `json:"working_set_bytes"`
	Targets       int     `json:"read_targets"`
	Seconds       float64 `json:"window_seconds"`
	Ops           int64   `json:"ops"`
	Reads         int     `json:"read_samples"`
	Ingests       int     `json:"ingest_samples"`
	FixRounds     int     `json:"fixer_rounds"`
	RebuiltBlocks int64   `json:"rebuilt_blocks"`
	SetUps        int     `json:"set_ups"`
	// SliceMBps is the throughput of every 1 s slice, in order: how
	// steady the run was, beside the median the metric reports.
	SliceMBps []float64 `json:"slice_mbps"`
}

// result is what one run reports. The last stdout line is its
// Correct/Attempted/Failed/Metrics, exactly the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info     runInfo
	failures []string
}

func (c runConfig) info(e *env, t *tally, nclients int) runInfo {
	slices := t.sliceMBps()
	for i, v := range slices {
		slices[i] = math.Round(v*10) / 10
	}
	return runInfo{
		Workload: c.sp.Name, Seed: c.seed, Trace: c.trace, Clients: nclients,
		Files: c.sp.Files, BlocksPerFile: c.sp.BlocksPerFile, BlockBytes: c.sp.BlockSize,
		SetBytes: c.sp.fileBytes() * int64(c.sp.Files), Targets: len(e.targets),
		Seconds: t.wall.Seconds(), Ops: t.ops(), Reads: len(t.readNs), Ingests: len(t.ingestNs),
		FixRounds: len(t.fixNs), RebuiltBlocks: t.rebuiltBlocks, SetUps: c.setUps,
		SliceMBps: slices,
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}

// checkInvariants holds degraded reads to the paper's saving:
// Piggybacked-RS must fetch less per lost data block than RS's k.
// (Repairs are held to it block by block, in lostOn.)
func checkInvariants(e *env, t *tally, degradedBlocks, degradedFetched int64) {
	if e.sp.Kind == kindDegraded {
		if degradedBlocks < int64(len(t.readNs)) {
			t.fail("%d reads reconstructed only %d blocks", len(t.readNs), degradedBlocks)
		}
		if per := ratio(float64(degradedFetched), float64(degradedBlocks*e.sp.BlockSize)); per <= 0 || per >= dataShards {
			t.fail("a degraded block fetched %.3f blocks; Piggybacked-RS(10,4) must stay under %d", per, dataShards)
		}
	}
}

// degradedCounters sums the clients' degraded-read counters.
func (e *env) degradedCounters() (blocks, fetched int64) {
	for _, cl := range e.clients {
		c := cl.Counters()
		blocks += c.DegradedBlocks
		fetched += c.DegradedBytesFetched
	}
	return blocks, fetched
}

// runUntraced is the pass end-to-end metrics come from: tracing and
// telemetry off, `clients` closed-loop clients. The system is set up
// setUps times and each one serves an equal share of the window:
// setup_s is the median set-up, and the other metrics pool the slices
// and samples of all of them, so one unluckily placed system (ports,
// block placement, heap layout) does not decide the run.
func runUntraced(c runConfig) (*result, error) {
	in := makeInputs(c.sp, c.seed)
	share := c.lim
	share.seconds /= float64(c.setUps)
	t := &tally{}
	var (
		setUps []float64
		last   runInfo
	)
	for i := 0; i < c.setUps; i++ {
		began := time.Now()
		e, err := setUp(c.sp, in, c.tmpRoot, clients, nil)
		if err != nil {
			return nil, err
		}
		setUps = append(setUps, time.Since(began).Seconds())
		d0, f0 := e.degradedCounters()
		part := e.runWindow(share)
		d1, f1 := e.degradedCounters()
		e.verifyAfter(part)
		checkInvariants(e, part, d1-d0, f1-f0)
		t.merge(part)
		last = c.info(e, t, clients)
		if err := e.close(); err != nil {
			return nil, err
		}
	}

	// The primary operation per workload kind: what its user waits for.
	opNs := t.readNs
	switch c.sp.Kind {
	case kindIngest:
		opNs = t.ingestNs
	case kindRepair:
		opNs = t.fixNs
	}
	goodput, cpuPerGB := t.rates()
	m := metricSet{
		"setup_s":      stats.Median(setUps),
		"goodput_mbps": goodput,
		"op_p50_ms":    stats.Median(millis(opNs)),
		"cpu_s_per_gb": cpuPerGB,
		"peak_rss_mb":  peakRSSMB(),
	}
	if len(opNs) == 0 {
		t.fail("no operation completed")
	}
	return &result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: m.render(endToEnd), info: last, failures: t.failures,
	}, nil
}

// runTraced is the pass per-layer metrics come from. It runs the
// workload twice with ONE client, half the window each: first plain
// (latency percentiles, allocations, and the throughput tracing is
// compared against), then with the decorators and the system's
// telemetry on.
func runTraced(c runConfig) (*result, error) {
	in := makeInputs(c.sp, c.seed)
	half := c.lim
	half.seconds /= 2
	m := metricSet{}

	plainEnv, err := setUp(c.sp, in, c.tmpRoot, 1, nil)
	if err != nil {
		return nil, err
	}
	plain := plainLayers(plainEnv, half, m)
	plainEnv.verifyAfter(plain)
	if err := plainEnv.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	e, err := setUp(c.sp, in, c.tmpRoot, 1, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	t := tracedLayers(e, half, m)
	e.verifyAfter(t)
	m["trace.overhead_frac"] = 1 - ratio(throughput(t), throughput(plain))
	runProbes(e, c.quick, m)
	if err := tr.write(filepath.Join(c.tmpRoot, "spans-"+c.sp.Name+".jsonl")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	t.attempted += plain.attempted
	t.failed += plain.failed
	t.failures = append(plain.failures, t.failures...)
	return &result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: m.render(perLayer), info: c.info(e, t, 1), failures: t.failures,
	}, nil
}

// throughput is the window's median-slice throughput.
func throughput(t *tally) float64 {
	mbps, _ := t.rates()
	return mbps
}
