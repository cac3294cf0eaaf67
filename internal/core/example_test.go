package core_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ec"
)

// The paper's production configuration: encode ten data shards into
// four parities, lose the maximum four shards, reconstruct.
func ExampleNew() {
	code, err := core.New(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	data := bytes.Repeat([]byte("warehouse"), 1000)
	shards, err := ec.SplitShards(data, code.DataShards(), code.ParityShards(), code.MinShardSize())
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
	restored, err := ec.JoinShards(shards, code.DataShards(), len(data))
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
func ExampleCode_PlanRepair() {
	code, err := core.New(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	const shardSize = 256 << 20 // one HDFS block
	plan, err := code.PlanRepair(0, shardSize, ec.AllAliveExcept(0))
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
