package main

// metricDef is one named metric of the benchmark. The tables below are
// the single source of the names BENCHMARK.json lists; the smoke test
// fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	// Exact marks a per-layer metric that is a ratio of counts: with one
	// client and a fixed op count it must repeat bit-for-bit (-selfcheck).
	Exact bool
}

// endToEnd is what a user of the store sees, one definition per
// workload kind (see README.md): every workload reports every one of
// them, and none is ever zero. Every bound is the contract's maximum,
// 25%: three times the widest run-to-run spread measured on the
// reference machine (8%; README, "Steadiness").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_gb", Unit: "s/GB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer comes from the traced pass: one client, the benchmark's
// decorators at the ec.Code and hdfs.BlockStore seams, spans around
// every client call, and the system's own telemetry registry. A metric
// that does not apply to a workload (ingest latency on a read-only
// workload) reports 0.
var perLayer = []metricDef{
	// serve: framing, sockets, dispatch, the metadata RPC.
	{Name: "serve.read_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.rpcs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.wire_bytes_per_user_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "serve.nn_handler_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "serve.dn_handler_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "serve.rpc_errors_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.read_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "serve.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p99.9_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "serve.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.fetched_bytes_per_degraded_byte", Unit: "ratio", Better: "lower", Exact: true},
	// hdfs: metadata locks, the node cache, the block fixer.
	{Name: "hdfs.lock_wait_us_per_op", Unit: "us", Better: "lower"},
	{Name: "hdfs.meta_ops_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "hdfs.node_cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "hdfs.fix_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "hdfs.repair_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "hdfs.stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "hdfs.direct_read_mbps", Unit: "MB/s", Better: "higher"},
	// extent: the on-disk segment store under every datanode.
	{Name: "extent.get_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "extent.get_bytes_per_user_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "extent.put_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "extent.put_bytes_per_user_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "extent.disk_bytes_per_live_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "extent.crc_failures", Unit: "count", Better: "lower", Exact: true},
	{Name: "extent.get_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "extent.put_mbps", Unit: "MB/s", Better: "higher"},
	// cache: the client block cache.
	{Name: "cache.client_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "cache.client_hits_per_op", Unit: "count", Better: "higher", Exact: true},
	{Name: "cache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower"},
	// core: the Piggybacked-RS codec (rs beneath it).
	{Name: "core.encode_ms_per_stripe", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.decode_self_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.fetch_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.plan_bytes_frac_of_rs", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "core.repair_mbps", Unit: "MB/s", Better: "higher"},
	// gf256: the field kernels, the ceiling for core.*_mbps.
	{Name: "gf256.muladd_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "gf256.xorall_mbps", Unit: "MB/s", Better: "higher"},
	// engine: the stripe-repair worker pool.
	{Name: "engine.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "engine.jobs_per_round", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.scratch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.repair_mbps_par1", Unit: "MB/s", Better: "higher"},
	{Name: "engine.repair_mbps_parN", Unit: "MB/s", Better: "higher"},
	// cluster: the cross-rack byte accounting (the paper's Fig. 3b).
	{Name: "cluster.xrack_bytes_per_op", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "cluster.xrack_bytes_total", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "cluster.xrack_bytes_per_repaired_byte", Unit: "ratio", Better: "lower", Exact: true},
	// process: the Go runtime of the whole benchmark process.
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	// trace: what the tracing itself costs and whether the budget adds up.
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.budget_sum_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.ops", Unit: "count", Better: "higher", Exact: true},
	{Name: "trace.spans", Unit: "count", Better: "lower", Exact: true},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a table,
// so a metric the run forgot is reported as 0 rather than missing.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// ratio is a/b, 0 when b is 0: a ratio over an empty base is reported
// as "did not happen", not as NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// millis converts nanosecond samples to milliseconds.
func millis(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
