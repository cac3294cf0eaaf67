package main

import (
	"bytes"
	"os"
	"testing"
)

// Every section of the report at the default trace length, with the
// §2.2 simulation shrunk as under -quick. The report is seeded, so
// its text is pinned: a change that does not mean to move a paper
// number must leave it byte-identical.

// The full paper-vs-measured report: 96 days, seed 1, -quick.
func Example_run() {
	if err := run(os.Stdout, 96, 1, true); err != nil {
		panic(err)
	}
	// Output:
	// ================================================================
	//  Reproduction report: HotStorage 2013 Facebook warehouse study
	// ================================================================
	//
	// --- Fig. 1: network amplification of (2,2) RS recovery ---
	// paper   : recovering one unit moves 2 units through TOR + AS switches
	// measured: repair plan reads 2 units from 2 nodes
	//
	// --- Fig. 2: (10,4) striping layout ---
	// paper   : 10 data blocks encode to 4 parity blocks, byte-level striping
	// measured: stripe of 10+4 shards, parity verifies: true
	//
	// --- Fig. 3a: machines unavailable > 15 min per day ---
	// paper   : median > 50 events/day, spikes toward ~350
	// measured: median 52, min 36, max 252 over 96 days
	// day series: 49 42 252 55 42 38 53 66 51 49 139 58 49 45 52 51 52 59 39 161 53 53 43 51 ... (first 24 days)
	//
	// --- §2.2 item 2: missing blocks per affected stripe ---
	// paper   : 1 missing: 98.08%   2 missing: 1.87%   >=3 missing: 0.05%
	// measured: 1 missing: 98.20%   2 missing: 1.80%   >=3 missing: 0.00%  (1558 affected stripes)
	//
	// --- Fig. 3b: blocks reconstructed and cross-rack bytes per day ---
	// paper   : median 95,500 blocks/day; median > 180 TB cross-rack/day (RS)
	// measured: median 97000 blocks/day; median 179.39 TB cross-rack/day (rs(10,4))
	//           day range: 54.12 TB .. 345.63 TB cross-rack
	//
	// --- Fig. 4 / Example 1: toy (2,2) piggybacked code ---
	// paper   : node 1 recovered with 3 bytes instead of 4
	// measured: repair of node 1 downloads 3 bytes (stripe stores 2 bytes/node)
	//
	// --- §3.1/§3.2: single-block recovery download, (10,4), per position ---
	// position:                  0     1     2     3     4     5     6     7     8     9    10    11    12    13   avg(data)  avg(all)
	// rs(10,4):               1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00  1.00      1.000     1.000
	// piggybacked-rs(10,4):   0.70  0.70  0.70  0.70  0.65  0.65  0.65  0.65  0.65  0.65  1.00  1.00  1.00  1.00      0.670     0.764
	// paper   : piggybacked code saves ~30% on average for single block failures
	// measured: savings 33.0% averaged over data blocks, 23.6% over all 14 blocks
	// context : lrc(10,4,2) repairs at 0.625 of RS but stores 1.6x (not MDS, §5)
	//
	// --- §3.2: projected cross-rack traffic reduction ---
	// paper   : replacing RS with Piggybacked-RS saves "close to fifty" TB/day
	// measured: 43.29 TB/day saved (23.1% of recovery traffic) on the same trace
	//           RS: 187.24 TB/day   Piggybacked-RS: 143.95 TB/day (means)
	//
	// --- §3.2: time taken for recovery ---
	// paper   : more helpers, fewer bytes => recovery no slower (bandwidth-bound)
	// measured: mean per-block recovery 16.29s (RS) vs 12.528s (Piggybacked-RS)
	//           percentiles (RS)  : P50 20.095s  P95 21.495s  P99 21.495s
	//           percentiles (PBRS): P50 13.979s  P95 21.495s  P99 21.495s
	//
	// --- §3.2: reliability (MTTDL) ---
	// paper   : MTTDL(Piggybacked-RS) >= MTTDL(RS); both >> replication per byte
	// system                  MTTDL (years)   overhead
	// replication(3)                6.9e+11       3.0x
	// rs(10,4)                     1.45e+16       1.4x
	// piggybacked-rs(10,4)         4.24e+16       1.4x
	// lrc(10,4,2)                  8.48e+25       1.6x
	//
	// --- §1/§2.1: storage overhead ---
	// paper   : (10,4) RS stores 1.4x vs 3x under replication
	// measured: rs=1.4x piggybacked-rs=1.4x lrc=1.6x replication=3.0x
	//
	// --- §2.2 (extension): recovery vs foreground bandwidth ---
	// paper   : recovery traffic crowds out foreground map-reduce jobs
	// measured: throttled at 170.00 TB/day over 96 days —
	//           rs  : 94 saturated days, peak backlog 1.76 PB, mean utilization 100%
	//           pbrs: 41 saturated days, peak backlog 135.29 TB, mean utilization 85%
	//
	// --- §4 (future work, later Hitchhiker): on-disk substripe layout ---
	// paper   : code 'reduces the amount of read' — requires substripe-contiguous layout
	// measured: disk bytes per data-block repair: rs 2.50 GB | pbrs coupled 1.75 GB | pbrs interleaved 2.75 GB
	//           naive byte-interleaving would EXCEED the RS disk read — hop-and-couple fixes it
	//
	// --- §5 (related work): regenerating-code lower bounds ---
	// paper   : regenerating codes achieve lower download but restrict parameters
	// measured: repair floor (MSR, storage-optimal) = 0.325 of stripe data; rs = 1.000;
	//           piggybacked-rs = 0.670 (data avg) — captures 49% of the available saving
	//           repair floor (MBR, any storage) = 0.153 of stripe data, at 1.53x MSR's per-node storage
}

// A trace length the generator refuses fails the run before the
// report's first line, so a bad -days prints no partial report.
func TestRunRejectsBadDaysBeforePrinting(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 0, 1, true); err == nil {
		t.Fatal("run accepted 0 days")
	}
	if out.Len() != 0 {
		t.Fatalf("run printed %d bytes before failing:\n%s", out.Len(), out.String())
	}
}
