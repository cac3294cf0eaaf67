package serve_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/repairmgr"
	"repro/internal/rs"
	"repro/internal/serve"
)

// A live serving cluster on localhost TCP: namenode plus one datanode
// daemon per machine, written to and read back through a real client.
func ExampleStart() {
	code, err := rs.New(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := serve.Start(hdfs.Config{
		Topology:    cluster.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1 << 20,
		Replication: 2,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	client, err := serve.Dial(sys.NameAddr(), code)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	payload := bytes.Repeat([]byte("served"), 1000)
	if err := client.WriteFile("hot/file", payload); err != nil {
		log.Fatal(err)
	}
	back, err := client.ReadFile("hot/file")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("served intact:", bytes.Equal(back, payload))
	// Output:
	// served intact: true
}

// The autonomous repair control plane runs inside the serving
// namenode; clients observe it through the repair.status RPC.
func ExampleWithRepairManager() {
	code, err := rs.New(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := serve.Start(hdfs.Config{
		Topology:    cluster.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1 << 20,
		Replication: 2,
		Seed:        1,
	}, serve.WithRepairManager(repairmgr.DefaultConfig()))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	client, err := serve.Dial(sys.NameAddr(), code)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	status, err := client.RepairStatus()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes tracked:", len(status.Nodes))
	fmt.Println("repair queue empty:", status.QueueDepth == 0)
	// Output:
	// nodes tracked: 6
	// repair queue empty: true
}
