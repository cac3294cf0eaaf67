// Command repaircost prints single-shard repair download costs for the
// three codecs across a (k, r) sweep — the analytical backbone of the
// paper's §3 comparison. For each code it reports the per-position
// repair fraction (download / RS baseline), the data-shard and all-shard
// averages, and the storage overhead, making the paper's trade-off
// explicit: Piggybacked-RS cuts repair traffic at 1.0x extra storage,
// LRC cuts it further but pays for it in capacity. It regenerates the
// §3.1/§3.2 savings and storage-overhead rows of the map in the root
// package doc (doc.go), and -bounds the §5 row. Every table is
// closed-form; measured performance comes from `go run ./benchmark`
// (see benchmark/README.md).
//
// Usage:
//
//	repaircost [-k K] [-r R] [-size BYTES] [-sweep] [-bounds]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/regenerating"
	"repro/internal/rs"
	"repro/internal/stats"
)

func main() {
	k := flag.Int("k", 10, "data shards")
	r := flag.Int("r", 4, "parity shards")
	size := flag.Int64("size", 256<<20, "shard size in bytes")
	sweep := flag.Bool("sweep", false, "print the (k, r) sweep table instead of one configuration")
	bounds := flag.Bool("bounds", false, "compare against the regenerating-codes cut-set bounds (§5)")
	flag.Parse()

	var err error
	switch {
	case *bounds:
		err = boundsTable(*k, *r)
	case *sweep:
		err = sweepTable(*size)
	default:
		err = oneConfig(*k, *r, *size)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repaircost:", err)
		os.Exit(1)
	}
}

// boundsTable positions each code against the information-theoretic
// repair minimum of the regenerating-codes model the paper cites.
func boundsTable(k, r int) error {
	pb, err := core.New(k, r)
	if err != nil {
		return err
	}
	p := regenerating.Params{N: k + r, K: k, D: k + r - 1}
	msrFrac, err := regenerating.RepairFractionBound(p)
	if err != nil {
		return err
	}
	mbr, err := regenerating.MBR(1, p)
	if err != nil {
		return err
	}
	_, pbAvg, err := ec.RepairFraction(pb, 4096)
	if err != nil {
		return err
	}
	fmt.Printf("Single-failure repair download as a fraction of stripe data, (%d,%d), d=%d helpers\n\n", k, r, k+r-1)
	fmt.Printf("%-34s %10s %10s\n", "scheme", "download", "storage")
	fmt.Printf("%-34s %10.3f %9.2fx\n", "reed-solomon (deployed)", 1.0, pb.StorageOverhead())
	fmt.Printf("%-34s %10.3f %9.2fx\n", "piggybacked-rs (data-shard avg)", pb.AverageDataRepairFraction(), pb.StorageOverhead())
	fmt.Printf("%-34s %10.3f %9.2fx\n", "piggybacked-rs (all-shard avg)", pbAvg, pb.StorageOverhead())
	if lc, err := lrc.New(k, r, 2); err == nil {
		_, lcAvg, err := ec.RepairFraction(lc, 4096)
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %10.3f %9.2fx\n", "lrc (not storage optimal, §5)", lcAvg, lc.StorageOverhead())
	}
	fmt.Printf("%-34s %10.3f %9.2fx\n", "MSR bound (storage-optimal floor)", msrFrac, pb.StorageOverhead())
	fmt.Printf("%-34s %10.3f %9.2fx\n", "MBR bound (any-storage floor)", mbr.Gamma, mbr.Alpha*float64(k))
	captured := (1 - pb.AverageDataRepairFraction()) / (1 - msrFrac)
	fmt.Printf("\npiggybacking captures %.0f%% of the saving any storage-optimal code could\n", 100*captured)
	fmt.Println("achieve, with none of the (k, r) restrictions of explicit regenerating codes (§5).")
	return nil
}

func oneConfig(k, r int, size int64) error {
	rsc, err := rs.New(k, r)
	if err != nil {
		return err
	}
	pb, err := core.New(k, r)
	if err != nil {
		return err
	}
	codes := []ec.Code{rsc, pb}
	if lc, err := lrc.New(k, r, 2); err == nil {
		codes = append(codes, lc)
	}

	fmt.Printf("Single-shard repair cost, (%d,%d), shard size %s\n\n", k, r, stats.FormatBytes(size))
	for _, c := range codes {
		per, avg, err := ec.RepairFraction(c, size)
		if err != nil {
			return err
		}
		fmt.Printf("%s  (overhead %.2fx)\n", c.Name(), c.StorageOverhead())
		fmt.Printf("  position: ")
		for i := range per {
			fmt.Printf("%5.2f", per[i])
		}
		fmt.Println()
		var dataAvg float64
		for i := 0; i < c.DataShards(); i++ {
			dataAvg += per[i]
		}
		dataAvg /= float64(c.DataShards())
		fmt.Printf("  download per repair: avg %s (%.1f%% of RS); data-shard avg %.1f%% savings\n\n",
			stats.FormatBytes(int64(avg*float64(c.DataShards())*float64(size))),
			100*avg, 100*(1-dataAvg))
	}

	fmt.Println("Piggyback groups:", pb.Groups())
	return nil
}

func sweepTable(size int64) error {
	fmt.Printf("Average single-shard repair fraction (of the RS baseline), shard size %s\n\n", stats.FormatBytes(size))
	fmt.Printf("%8s %8s | %8s %8s %14s %14s\n", "k", "r", "rs", "pbrs", "pbrs(data)", "pbrs savings")
	for _, k := range []int{4, 6, 8, 10, 12, 14} {
		for _, r := range []int{2, 3, 4, 5} {
			pb, err := core.New(k, r)
			if err != nil {
				continue
			}
			_, avg, err := ec.RepairFraction(pb, size)
			if err != nil {
				return err
			}
			fmt.Printf("%8d %8d | %8.3f %8.3f %14.3f %13.1f%%\n",
				k, r, 1.0, avg, pb.AverageDataRepairFraction(), 100*(1-avg))
		}
	}
	fmt.Println("\nrs column: every RS repair downloads the full stripe data (fraction 1.0).")
	fmt.Println("pbrs(data): average over data shards only — the paper's ~30% for (10,4).")
	return nil
}
