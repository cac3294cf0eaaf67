// Archival tiering: the workflow that motivates the paper's §2.1. Files
// start hot at 3x replication for map-reduce locality; once cold (not
// accessed for three months) the RaidNode erasure-codes them down to
// 1.4x. The example measures the storage reclaimed and then the price of
// that efficiency — recovery traffic when machines fail — under both RS
// and Piggybacked-RS. It regenerates the storage-overhead row of the map
// in the root package doc (doc.go).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/stats"
)

func main() {
	pb, err := core.New(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := hdfs.New(hdfs.Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 10},
		Code:        pb,
		BlockSize:   32 << 10,
		Replication: 3,
		Seed:        99,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A month of daily partitions lands in the warehouse.
	rng := rand.New(rand.NewSource(5))
	originals := make(map[string][]byte)
	for day := 1; day <= 30; day++ {
		name := fmt.Sprintf("hive/events/ds=2013-01-%02d", day)
		// Each partition is exactly one (10,4) stripe of full blocks;
		// short files would carry phantom padding and sit above 1.4x.
		data := make([]byte, 10*32<<10)
		rng.Read(data)
		originals[name] = data
		if err := fs.WriteFile(name, data); err != nil {
			log.Fatal(err)
		}
	}
	hot := fs.TotalStoredBytes()
	fmt.Printf("30 partitions written at 3x replication: %s stored\n", stats.FormatBytes(hot))

	// One partition stays hot: a dashboard reads it every week.
	fs.AdvanceClock(85 * 24 * time.Hour)
	if _, err := fs.ReadFile("hive/events/ds=2013-01-30"); err != nil {
		log.Fatal(err)
	}
	// Three months after the writes, the RaidNode's cold-data policy
	// (§2.1: "not been accessed for more than three months") picks up
	// everything except the hot partition and erasure-codes it.
	fs.AdvanceClock(6 * 24 * time.Hour)
	report, err := fs.RunRaidNode(hdfs.DefaultRaidPolicy())
	if err != nil {
		log.Fatal(err)
	}
	var logical int64
	for name := range originals {
		info, err := fs.Stat(name)
		if err != nil {
			log.Fatal(err)
		}
		logical += info.Size
	}
	cold := fs.TotalStoredBytes()
	fmt.Printf("RaidNode pass: %d files raided (%d blocks), %s reclaimed; 1 hot file left replicated\n",
		report.FilesRaided, report.BlocksEncoded, stats.FormatBytes(report.StorageReclaimedBytes))
	fmt.Printf("after raiding with %s: %s stored (%.2fx of %s logical; replication was %.2fx)\n",
		pb.Name(), stats.FormatBytes(cold), float64(cold)/float64(logical),
		stats.FormatBytes(logical), float64(hot)/float64(logical))

	// Machines fail; the BlockFixer restores the stripes.
	fs.Network().Reset()
	for _, m := range []int{3, 47, 111} {
		fs.DecommissionMachine(m)
	}
	fix, err := fs.RunBlockFixer()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3 machines decommissioned; fixer repaired %d striped blocks (re-replicated %d) moving %s cross-rack\n",
		fix.RepairedStriped, fix.ReReplicated, stats.FormatBytes(fix.CrossRackBytes))
	if len(fix.Unrecoverable) > 0 {
		log.Fatalf("unrecoverable blocks: %v", fix.Unrecoverable)
	}

	// Every partition still reads back bit-exact.
	for name, want := range originals {
		got, err := fs.ReadFile(name)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("%s corrupted", name)
		}
	}
	fmt.Println("all 30 partitions verified bit-exact after repair")
}
