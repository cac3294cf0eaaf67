package sim_test

import (
	"fmt"
	"log"

	"repro/internal/sim"
)

// The §2.2 measurement: how many blocks of an affected stripe are
// missing at once. Single failures dominate, which is why the
// piggybacked code optimises exactly that case.
func ExampleMissingBlockDistribution() {
	dist, err := sim.MissingBlockDistribution(sim.DefaultStripeFailureConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single: %.1f%%\n", 100*dist.Fraction(1))
	fmt.Printf("double: %.1f%%\n", 100*dist.Fraction(2))
	// Output:
	// single: 98.1%
	// double: 1.9%
}
