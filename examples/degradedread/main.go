// Degraded read: a miniature HDFS cluster raids a file with (10,4) RS
// and with (10,4) Piggybacked-RS, a machine fails, and a client reads
// the file through the degraded path. The cross-rack traffic the two
// codes consume shows the paper's §3.2 saving on the exact code path a
// production cluster exercises. It regenerates the §3.1/§3.2 savings row
// of the map in the root package doc (doc.go), as cross-rack bytes.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/hdfs"
	"repro/internal/rs"
	"repro/internal/stats"
)

func run(codeName string, code ec.Code) int64 {
	fs, err := hdfs.New(hdfs.Config{
		Topology:    cluster.Topology{Racks: 20, MachinesPerRack: 8},
		Code:        code,
		BlockSize:   64 << 10, // 64 KB blocks scale down the 256 MB of §2.1
		Replication: 3,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	// A 10-block file: exactly one stripe under (10,4).
	data := make([]byte, 10*64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	if err := fs.WriteFile("warehouse/part-00000", data); err != nil {
		log.Fatal(err)
	}

	// The RaidNode encodes the cold file and drops its replicas.
	if err := fs.RaidFile("warehouse/part-00000"); err != nil {
		log.Fatal(err)
	}
	fs.Network().Reset() // measure recovery traffic only, like the paper

	// A machine holding block 0 becomes unavailable.
	locs, err := fs.BlockLocations("warehouse/part-00000")
	if err != nil {
		log.Fatal(err)
	}
	fs.FailMachine(locs[0][0])

	// The client read still succeeds, reconstructing on the fly.
	got, err := fs.ReadFile("warehouse/part-00000")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		log.Fatalf("%s: degraded read corrupted data", codeName)
	}
	cross := fs.Network().CrossRackBytes()
	fmt.Printf("%-22s degraded read OK, cross-rack traffic: %s\n", codeName, stats.FormatBytes(cross))
	return cross
}

func main() {
	fmt.Println("degraded read of one lost 64 KB block in a (10,4) stripe:")
	rsc, err := rs.New(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	pb, err := core.New(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	rsBytes := run("rs(10,4)", rsc)
	pbBytes := run("piggybacked-rs(10,4)", pb)
	fmt.Printf("\npiggybacking read %.1f%% less cross-rack traffic (paper: ~30%% for data blocks)\n",
		100*(1-float64(pbBytes)/float64(rsBytes)))
}
