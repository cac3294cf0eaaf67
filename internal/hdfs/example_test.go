package hdfs_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/rs"
)

// The metadata plane: one namenode's metadata over rack-aware
// datanodes. A raided file reads back intact after the machine holding
// one of its blocks dies, and the fixer restores full health.
func ExampleNew() {
	code, err := rs.New(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	md, err := hdfs.New(hdfs.Config{
		Topology:    cluster.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   8,
		Replication: 2,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer md.Close()
	if err := md.WriteFile("warehouse/cold", []byte("sixteen bytes!!!")); err != nil {
		log.Fatal(err)
	}
	if err := md.RaidFile("warehouse/cold"); err != nil {
		log.Fatal(err)
	}
	locs, err := md.BlockLocations("warehouse/cold")
	if err != nil {
		log.Fatal(err)
	}
	md.FailMachine(locs[0][0])

	back, err := md.ReadFile("warehouse/cold")
	if err != nil {
		log.Fatal(err)
	}
	fix, err := md.RunBlockFixer()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("intact:", string(back) == "sixteen bytes!!!")
	fmt.Println("repaired:", fix.RepairedStriped)
	fmt.Println("healthy:", md.Health().Healthy())
	// Output:
	// intact: true
	// repaired: 1
	// healthy: true
}
