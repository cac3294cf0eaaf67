// Toy example: the paper's Fig. 4 — a (k=2, r=2) Piggybacked-RS code
// walked through byte by byte. Two substripes {a1, a2} and {b1, b2} are
// RS-encoded; the piggyback a1 is added to the second parity of the
// second substripe. Node 1 is then recovered by downloading 3 bytes
// instead of the 4 an RS code would need. It regenerates the Fig. 4 row
// of the map in the root package doc (doc.go).
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ec"
)

func main() {
	code, err := core.New(2, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Each node stores one byte per substripe: shard = [a_i, b_i].
	a1, a2 := byte(0x12), byte(0x34)
	b1, b2 := byte(0x56), byte(0x78)
	shards := [][]byte{{a1, b1}, {a2, b2}, nil, nil}
	if err := code.Encode(shards); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fig. 4 layout (each node stores [a-byte, b-byte]):")
	names := []string{"node 1 (a1,b1)", "node 2 (a2,b2)", "node 3 (parity 1)", "node 4 (parity 2 + piggyback a1)"}
	for i, s := range shards {
		fmt.Printf("  %-33s = [%#02x %#02x]\n", names[i], s[0], s[1])
	}
	fmt.Printf("piggyback groups: %v (only node 1 is piggybacked, like the paper)\n\n", code.Groups())

	// Recover node 1 the piggybacked way.
	plan, err := code.PlanRepair(0, 2, ec.AllAliveExcept(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovering node 1 downloads %d bytes (RS needs 4):\n", plan.TotalBytes())
	for _, r := range plan.Reads {
		half := "a"
		if r.Offset == 1 {
			half = "b"
		}
		fmt.Printf("  read %s-byte of node %d\n", half, r.Shard+1)
	}

	repaired, err := code.ExecuteRepair(0, 2, ec.AllAliveExcept(0), func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecovered node 1 = [%#02x %#02x], original = [%#02x %#02x], match = %v\n",
		repaired[0], repaired[1], a1, b1, bytes.Equal(repaired, []byte{a1, b1}))

	// And the fault-tolerance claim: ANY two nodes can fail.
	fmt.Println("\nfault tolerance (any 2 of 4 nodes):")
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			work := make([][]byte, 4)
			for n, s := range shards {
				if n != i && n != j {
					work[n] = append([]byte(nil), s...)
				}
			}
			err := code.Reconstruct(work)
			ok := err == nil
			for n := range shards {
				ok = ok && bytes.Equal(work[n], shards[n])
			}
			fmt.Printf("  lose nodes %d+%d: recovered = %v\n", i+1, j+1, ok)
		}
	}
}
