package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"log"

	"repro"
)

// The paper's production configuration: encode ten data shards into
// four parities, lose the maximum four shards, reconstruct.
func ExampleNewPiggybackedRS() {
	code, err := repro.NewPiggybackedRS(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	data := bytes.Repeat([]byte("warehouse"), 1000)
	shards, err := repro.SplitShards(data, code.DataShards(), code.ParityShards(), code.MinShardSize())
	if err != nil {
		log.Fatal(err)
	}
	if err := code.Encode(shards); err != nil {
		log.Fatal(err)
	}
	shards[0], shards[4], shards[10], shards[13] = nil, nil, nil, nil
	if err := code.Reconstruct(shards); err != nil {
		log.Fatal(err)
	}
	restored, err := repro.JoinShards(shards, code.DataShards(), len(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("overhead:", code.StorageOverhead())
	fmt.Println("intact:", bytes.Equal(restored, data))
	// Output:
	// overhead: 1.4
	// intact: true
}

// A repair plan reveals the paper's headline saving: the piggybacked
// repair of a data shard downloads 30-35% less than Reed-Solomon.
func ExamplePiggybackedRS_PlanRepair() {
	code, err := repro.NewPiggybackedRS(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	const shardSize = 256 << 20 // one HDFS block
	plan, err := code.PlanRepair(0, shardSize, repro.AllAliveExcept(0))
	if err != nil {
		log.Fatal(err)
	}
	rsBytes := int64(code.DataShards()) * shardSize
	fmt.Printf("piggybacked: %d MB from %d helpers\n", plan.TotalBytes()>>20, plan.Sources())
	fmt.Printf("reed-solomon: %d MB from 10 helpers\n", rsBytes>>20)
	// Output:
	// piggybacked: 1792 MB from 11 helpers
	// reed-solomon: 2560 MB from 10 helpers
}

// Streaming interface: archive a stream into 14 shard streams and read
// it back with shards missing.
func ExampleNewStreamCodec() {
	code, err := repro.NewPiggybackedRS(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := repro.NewStreamCodec(code, 1024)
	if err != nil {
		log.Fatal(err)
	}

	data := bytes.Repeat([]byte("cold data "), 5000)
	bufs := make([]*bytes.Buffer, code.TotalShards())
	writers := make([]io.Writer, code.TotalShards())
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	n, err := sc.Encode(bytes.NewReader(data), writers)
	if err != nil {
		log.Fatal(err)
	}

	readers := make([]io.Reader, code.TotalShards())
	for i, b := range bufs {
		readers[i] = bytes.NewReader(b.Bytes())
	}
	readers[2], readers[11] = nil, nil // two shard streams lost
	var out bytes.Buffer
	if err := sc.Decode(readers, &out, n); err != nil {
		log.Fatal(err)
	}
	fmt.Println("restored:", bytes.Equal(out.Bytes(), data))
	// Output:
	// restored: true
}

// The §2.2 measurement: how many blocks of an affected stripe are
// missing at once. Single failures dominate, which is why the
// piggybacked code optimises exactly that case.
func ExampleMissingBlockDistribution() {
	dist, err := repro.MissingBlockDistribution(repro.DefaultStripeFailureConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single: %.1f%%\n", 100*dist.Fraction(1))
	fmt.Printf("double: %.1f%%\n", 100*dist.Fraction(2))
	// Output:
	// single: 98.1%
	// double: 1.9%
}

// The cut-set bound positions the piggybacked code against the best any
// storage-optimal code could do.
func ExampleMSRRepairFraction() {
	floor, err := repro.MSRRepairFraction(repro.RegeneratingParams{N: 14, K: 10, D: 13})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theoretical repair floor: %.3f of stripe data\n", floor)
	// Output:
	// theoretical repair floor: 0.325 of stripe data
}

// Batch repair on the concurrent engine: results are byte-identical to
// serial execution at any parallelism.
func ExampleNewEngine() {
	code, err := repro.NewRS(4, 2)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := repro.SplitShards(bytes.Repeat([]byte("stripe"), 512),
		code.DataShards(), code.ParityShards(), code.MinShardSize())
	if err != nil {
		log.Fatal(err)
	}
	if err := code.Encode(shards); err != nil {
		log.Fatal(err)
	}
	want := append([]byte(nil), shards[1]...)

	eng := repro.NewEngine(repro.EngineOptions{Parallelism: 4})
	results := eng.RunRepairs([]repro.RepairJob{{
		Code:      code,
		Missing:   []int{1},
		ShardSize: int64(len(shards[0])),
		Alive:     repro.AllAliveExcept(1),
		Fetch: func(req repro.ReadRequest) ([]byte, error) {
			return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
		},
	}})
	if results[0].Err != nil {
		log.Fatal(results[0].Err)
	}
	fmt.Println("repaired:", bytes.Equal(results[0].Shards[1], want))
	// Output:
	// repaired: true
}

// The metadata plane: Shards spreads files over independently locked
// metadata shards by a seeded consistent hash, while IO behaves exactly
// as it does at one shard. The same seed routes identically after a
// restart.
func ExampleNewMiniHDFS() {
	code, err := repro.NewRS(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.HDFSConfig{
		Topology:    repro.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1 << 20,
		Replication: 2,
		Seed:        42,
		Shards:      4,
	}
	md, err := repro.NewMiniHDFS(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := md.WriteFile(fmt.Sprintf("warehouse-%03d", i), []byte("cold data")); err != nil {
			log.Fatal(err)
		}
	}

	restarted, err := repro.NewMiniHDFS(cfg)
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

// A live serving cluster on localhost TCP: namenode plus one datanode
// daemon per machine, written to and read back through a real client.
func ExampleStartServeSystem() {
	code, err := repro.NewRS(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := repro.StartServeSystem(repro.HDFSConfig{
		Topology:    repro.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1 << 20,
		Replication: 2,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	client, err := repro.DialServe(sys.NameAddr(), code)
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
	code, err := repro.NewRS(2, 1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := repro.StartServeSystem(repro.HDFSConfig{
		Topology:    repro.Topology{Racks: 3, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   1 << 20,
		Replication: 2,
		Seed:        1,
	}, repro.WithRepairManager(repro.DefaultRepairManagerConfig()))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	client, err := repro.DialServe(sys.NameAddr(), code)
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
