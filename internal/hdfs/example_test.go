package hdfs_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/rs"
)

// The metadata plane: Shards spreads files over independently locked
// metadata shards by a seeded consistent hash, while IO behaves exactly
// as it does at one shard. The same seed routes identically after a
// restart.
func ExampleNew() {
	code, err := rs.New(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := hdfs.Config{
		Topology:    cluster.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1 << 20,
		Replication: 2,
		Seed:        42,
		Shards:      4,
	}
	md, err := hdfs.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := md.WriteFile(fmt.Sprintf("warehouse-%03d", i), []byte("cold data")); err != nil {
			log.Fatal(err)
		}
	}

	restarted, err := hdfs.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stable := true
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("warehouse-%03d", i)
		if md.ShardOf(name) != restarted.ShardOf(name) {
			stable = false
		}
	}

	back, err := md.ReadFile("warehouse-007")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("shards:", md.Shards())
	fmt.Println("routing stable across restart:", stable)
	fmt.Println("intact:", string(back) == "cold data")
	// Output:
	// shards: 4
	// routing stable across restart: true
	// intact: true
}
