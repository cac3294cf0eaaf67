package main

import (
	"runtime"
	"strings"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// plainLayers runs the one-client window with tracing and telemetry
// off and fills the metrics that must not carry tracing's cost:
// latency percentiles, throughput by op type, and the Go runtime's
// allocation and GC counts.
func plainLayers(e *env, lim limit, m metricSet) *tally {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := e.runWindow(lim)
	runtime.ReadMemStats(&ms1)
	ops := float64(t.ops())

	reads := millis(t.readNs)
	m["serve.read_p50_ms"] = stats.Median(reads)
	m["serve.read_p99_ms"] = stats.Percentile(reads, 99)
	m["serve.read_p99.9_ms"] = stats.Percentile(reads, 99.9)
	m["serve.read_mbps"] = ratio(float64(t.readBytes)/1e6, float64(sumNs(t.readNs))/1e9)
	ingests := millis(t.ingestNs)
	m["serve.ingest_p50_ms"] = stats.Median(ingests)
	m["serve.ingest_p99_ms"] = stats.Percentile(ingests, 99)
	m["serve.ingest_mbps"] = ratio(float64(t.ingestBytes)/1e6, float64(sumNs(t.ingestNs))/1e9)
	m["hdfs.repair_mbps"] = ratio(float64(t.rebuiltBytes)/1e6, float64(sumNs(t.fixNs))/1e9)
	m["hdfs.fix_ms_per_block"] = ratio(float64(sumNs(t.fixNs))/1e6, float64(t.rebuiltBlocks))

	m["process.allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), ops)
	m["process.alloc_kb_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3, ops)
	m["process.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["process.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return t
}

// sumWhere adds up the counters (or histogram sums) whose name starts
// with base and contains every given label fragment.
func sumWhere[V any](vals map[string]V, get func(V) float64, base string, labels ...string) float64 {
	var total float64
next:
	for name, v := range vals {
		if !strings.HasPrefix(name, base) {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue next
			}
		}
		total += get(v)
	}
	return total
}

func counterSum(s telemetry.Snapshot, base string, labels ...string) float64 {
	return sumWhere(s.Counters, func(v int64) float64 { return float64(v) }, base, labels...)
}

func histSeconds(s telemetry.Snapshot, base string, labels ...string) float64 {
	return sumWhere(s.Histograms, func(h telemetry.HistogramSnapshot) float64 { return h.Sum }, base, labels...)
}

// tracedLayers runs the one-client window with the decorators and the
// system's telemetry on, and turns spans and counter deltas into the
// per-layer metrics. Every count is taken as a delta over the window,
// so set-up and warm-up are not in it.
func tracedLayers(e *env, lim limit, m metricSet) *tally {
	md := e.sys.Cluster()
	cl := e.clients[0]
	sys0, ext0 := e.sys.Telemetry().Snapshot(), e.ext.Snapshot()
	lock0, cc0, x0 := md.LockStats(), cl.Counters(), md.Network().CrossRackBytes()

	t := e.runWindow(lim)

	sys1, ext1 := e.sys.Telemetry().Snapshot(), e.ext.Snapshot()
	lock1, cc1, x1 := md.LockStats(), cl.Counters(), md.Network().CrossRackBytes()
	checkInvariants(e, t, cc1.DegradedBlocks-cc0.DegradedBlocks, cc1.DegradedBytesFetched-cc0.DegradedBytesFetched)

	ops, user := float64(t.ops()), float64(t.goodBytes())
	dc := func(base string, labels ...string) float64 {
		return counterSum(sys1, base, labels...) - counterSum(sys0, base, labels...)
	}
	dh := func(base string, labels ...string) float64 {
		return histSeconds(sys1, base, labels...) - histSeconds(sys0, base, labels...)
	}

	// serve: the daemons' own RPC instruments.
	m["serve.rpcs_per_op"] = ratio(dc("rpc_requests_total"), ops)
	m["serve.wire_bytes_per_user_byte"] = ratio(dc("rpc_request_bytes_total")+dc("rpc_response_bytes_total"), user)
	m["serve.nn_handler_ms_per_op"] = ratio(dh("rpc_request_seconds", `role="namenode"`)*1e3, ops)
	m["serve.dn_handler_ms_per_op"] = ratio(dh("rpc_request_seconds", `role="datanode"`)*1e3, ops)
	m["serve.rpc_errors_per_op"] = ratio(dc("rpc_errors_total"), ops)
	degraded := float64(cc1.DegradedBlocks - cc0.DegradedBlocks)
	m["serve.fetched_bytes_per_degraded_byte"] = ratio(
		float64(cc1.DegradedBytesFetched-cc0.DegradedBytesFetched), degraded*float64(e.sp.BlockSize))

	// hdfs: metadata lock, node cache, stored bytes.
	m["hdfs.lock_wait_us_per_op"] = ratio(float64(lock1.WaitNanos-lock0.WaitNanos)/1e3, ops)
	m["hdfs.meta_ops_per_op"] = ratio(float64(lock1.Acquisitions-lock0.Acquisitions), ops)
	hits, misses := dc("hdfs_node_cache_hits_total"), dc("hdfs_node_cache_misses_total")
	m["hdfs.node_cache_hit_ratio"] = ratio(hits, hits+misses)
	stored := float64(e.sp.fileBytes()) * float64(e.sp.Files+len(t.acked))
	m["hdfs.stored_bytes_per_user_byte"] = ratio(float64(md.TotalStoredBytes()), stored)

	// cache: the client block cache.
	chits, cmisses := float64(cc1.CacheHits-cc0.CacheHits), float64(cc1.CacheMisses-cc0.CacheMisses)
	m["cache.client_hit_ratio"] = ratio(chits, chits+cmisses)
	m["cache.client_hits_per_op"] = ratio(chits, ops)

	// cluster: cross-rack bytes of the whole window, and of the fixer
	// passes per rebuilt byte (the paper's Fig. 3b quantity).
	m["cluster.xrack_bytes_total"] = float64(x1 - x0)
	m["cluster.xrack_bytes_per_op"] = ratio(float64(x1-x0), ops)
	m["cluster.xrack_bytes_per_repaired_byte"] = ratio(float64(t.xrackBytes), float64(t.rebuiltBytes))

	// engine: how busy the fixer kept its workers.
	fixNs := float64(sumNs(t.fixNs))
	par := float64(runtime.GOMAXPROCS(0)) // hdfs.Config.RepairParallelism 0 selects it
	m["engine.busy_frac"] = ratio(dc("engine_busy_nanos_total"), fixNs*par)
	m["engine.jobs_per_round"] = ratio(dc("engine_jobs_total"), float64(len(t.fixNs)))
	shits, smisses := dc("engine_scratch_hits_total"), dc("engine_scratch_misses_total")
	m["engine.scratch_hit_ratio"] = ratio(shits, shits+smisses)

	// extent: the store's own instruments, then the decorator's spans.
	m["extent.crc_failures"] = float64(ext1.Counters["extent_crc_failures_total"] - ext0.Counters["extent_crc_failures_total"])
	disk, live := e.diskStats()
	m["extent.disk_bytes_per_live_byte"] = ratio(float64(disk), float64(live))

	b := e.tr.analyse()
	m["extent.get_ms_per_op"] = ratio(float64(b.getNs)/1e6, ops)
	m["extent.get_bytes_per_user_byte"] = ratio(float64(b.getBytes), user)
	m["extent.put_ms_per_op"] = ratio(float64(b.putNs)/1e6, ops)
	m["extent.put_bytes_per_user_byte"] = ratio(float64(b.putBytes), user)

	// core: time through the ec.Code seam, per reconstructed block.
	rebuilt := degraded + float64(t.rebuiltBlocks)
	planNs := b.coreNs["PlanRepair"] + b.coreNs["PlanMultiRepair"] + b.coreNs["PlanLinearRepair"]
	m["core.encode_ms_per_stripe"] = ratio(float64(b.coreNs["Encode"])/1e6, float64(b.coreCalls["Encode"]))
	m["core.plan_ms_per_block"] = ratio(float64(planNs)/1e6, rebuilt)
	execNs := b.coreNs["ExecuteRepair"] + b.coreNs["ExecuteMultiRepair"]
	m["core.decode_self_ms_per_block"] = ratio(float64(execNs-b.fetchNs)/1e6, rebuilt)
	m["core.fetch_ms_per_block"] = ratio(float64(b.fetchNs)/1e6, rebuilt)
	m["core.plan_bytes_frac_of_rs"] = planFrac(e, t, degraded)

	// The budget of the workload's own op: the median of what is left
	// of a request after codec self time and store time (serve's share),
	// plus the mean of those two, against the median latency. With one
	// client the three shares of every request add up to its duration,
	// so a sum far from 1 means spans overlapped or were lost.
	root := map[kind]string{kindRead: "ReadFile", kindDegraded: "ReadFile", kindIngest: "Ingest", kindRepair: "RunBlockFixer"}[e.sp.Kind]
	m["serve.read_self_ms_p50"] = stats.Median(millis(b.serveSelf["ReadFile"]))
	n := float64(len(b.opNs[root]))
	shares := stats.Median(millis(b.serveSelf[root])) +
		ratio(float64(sumNs(b.coreSelf[root]))/1e6, n) + ratio(float64(sumNs(b.storeNs[root]))/1e6, n)
	m["trace.budget_sum_frac"] = ratio(shares, stats.Median(millis(b.opNs[root])))
	m["trace.ops"] = ops
	m["trace.spans"] = float64(len(e.tr.spans))
	return t
}

// planFrac is the bytes the codec's plans read for the shards actually
// lost, as a share of RS's k x shard: ~0.7 on data shards for
// Piggybacked-RS(10,4), 1 on most parities.
func planFrac(e *env, t *tally, degradedBlocks float64) float64 {
	if t.rsBytes > 0 {
		return ratio(float64(t.planBytes), float64(t.rsBytes))
	}
	if e.victim < 0 || degradedBlocks == 0 {
		return 0
	}
	// degraded_read: the blocks reconstructed are the victim's data
	// blocks of the target files, one per read.
	md := e.sys.Cluster()
	plans := map[planKey]int64{}
	var plan, rs int64
	for _, name := range e.targets {
		_, blocks, err := md.FileBlocks(name)
		if err != nil {
			return 0
		}
		for _, b := range blocks {
			if len(b.Locations) > 0 {
				continue
			}
			cost, err := e.planCost(plans, b.StripePos, e.sp.BlockSize)
			if err != nil {
				return 0
			}
			plan += cost
			rs += int64(dataShards) * e.sp.BlockSize
		}
	}
	return ratio(float64(plan), float64(rs))
}
