package main

// The program is seeded, so its stdout is pinned: a change that does
// not mean to move a number must leave it byte-identical.
func Example() {
	main()
	// Output:
	// degraded read of one lost 64 KB block in a (10,4) stripe:
	// rs(10,4)               degraded read OK, cross-rack traffic: 640.00 KB
	// piggybacked-rs(10,4)   degraded read OK, cross-rack traffic: 448.00 KB
	//
	// piggybacking read 30.0% less cross-rack traffic (paper: ~30% for data blocks)
}
