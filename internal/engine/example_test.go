package engine_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/rs"
)

// Batch repair on the concurrent engine: results are byte-identical to
// serial execution at any parallelism.
func ExampleEngine_RunRepairs() {
	code, err := rs.New(4, 2)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := ec.SplitShards(bytes.Repeat([]byte("stripe"), 512),
		code.DataShards(), code.ParityShards(), code.MinShardSize())
	if err != nil {
		log.Fatal(err)
	}
	if err := code.Encode(shards); err != nil {
		log.Fatal(err)
	}
	want := append([]byte(nil), shards[1]...)

	eng := engine.New(engine.Options{Parallelism: 4})
	results := eng.RunRepairs([]engine.RepairJob{{
		Code:      code,
		Missing:   []int{1},
		ShardSize: int64(len(shards[0])),
		Alive:     ec.AllAliveExcept(1),
		Fetch: func(req ec.ReadRequest) ([]byte, error) {
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
