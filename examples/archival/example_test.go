package main

// The program is seeded, so its stdout is pinned: a change that does
// not mean to move a number must leave it byte-identical.
func Example() {
	main()
	// Output:
	// 30 partitions written at 3x replication: 28.12 MB stored
	// RaidNode pass: 29 files raided (290 blocks), 14.50 MB reclaimed; 1 hot file left replicated
	// after raiding with piggybacked-rs(10,4): 13.62 MB stored (1.45x of 9.38 MB logical; replication was 3.00x)
	//
	// 3 machines decommissioned; fixer repaired 5 striped blocks (re-replicated 0) moving 1.16 MB cross-rack
	// all 30 partitions verified bit-exact after repair
}
