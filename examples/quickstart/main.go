// Quickstart: encode data with the paper's Piggybacked-RS code, lose
// shards, reconstruct, and compare the repair download against the
// Reed-Solomon baseline. It regenerates the §3.1/§3.2 savings and
// storage-overhead rows of the map in the root package doc (doc.go).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ec"
)

func main() {
	// The production parameters: 10 data shards, 4 parity shards,
	// 1.4x storage overhead, any 4 losses tolerated.
	code, err := core.New(10, 4)
	if err != nil {
		log.Fatal(err)
	}

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(data)

	// Split into shards and encode.
	shards, err := ec.SplitShards(data, code.DataShards(), code.ParityShards(), code.MinShardSize())
	if err != nil {
		log.Fatal(err)
	}
	if err := code.Encode(shards); err != nil {
		log.Fatal(err)
	}
	shardSize := int64(len(shards[0]))
	fmt.Printf("encoded 1 MiB into %d shards of %d bytes (%.1fx overhead)\n",
		code.TotalShards(), shardSize, code.StorageOverhead())

	// Lose any four shards — the maximum the code tolerates.
	for _, i := range []int{1, 6, 10, 13} {
		shards[i] = nil
	}
	if err := code.Reconstruct(shards); err != nil {
		log.Fatal(err)
	}
	restored, err := ec.JoinShards(shards, code.DataShards(), len(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reconstructed after losing 4 shards:", bytes.Equal(restored, data))

	// The paper's point: repairing ONE lost shard is the common case
	// (98% of recoveries), and Piggybacked-RS downloads ~30% less.
	plan, err := code.PlanRepair(3, shardSize, ec.AllAliveExcept(3))
	if err != nil {
		log.Fatal(err)
	}
	rsBaseline := int64(code.DataShards()) * shardSize
	fmt.Printf("single-shard repair: read %d bytes from %d helpers\n", plan.TotalBytes(), plan.Sources())
	fmt.Printf("Reed-Solomon would read %d bytes: %.0f%% saved\n",
		rsBaseline, 100*(1-float64(plan.TotalBytes())/float64(rsBaseline)))

	// Execute the plan against the in-memory shards.
	full := make([][]byte, code.TotalShards())
	copy(full, shards)
	lostShard := append([]byte(nil), full[3]...)
	full[3] = nil
	repaired, err := code.ExecuteRepair(3, shardSize, ec.AllAliveExcept(3), func(req ec.ReadRequest) ([]byte, error) {
		return full[req.Shard][req.Offset : req.Offset+req.Length], nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("repaired shard matches original:", bytes.Equal(repaired, lostShard))
}
