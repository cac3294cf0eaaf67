package regenerating_test

import (
	"fmt"
	"log"

	"repro/internal/regenerating"
)

// The cut-set bound positions the piggybacked code against the best any
// storage-optimal code could do.
func ExampleRepairFractionBound() {
	floor, err := regenerating.RepairFractionBound(regenerating.Params{N: 14, K: 10, D: 13})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theoretical repair floor: %.3f of stripe data\n", floor)
	// Output:
	// theoretical repair floor: 0.325 of stripe data
}
