package main

// The program is seeded, so its stdout is pinned: a change that does
// not mean to move a number must leave it byte-identical.
func Example() {
	main()
	// Output:
	// encoded 1 MiB into 14 shards of 104858 bytes (1.4x overhead)
	// reconstructed after losing 4 shards: true
	// single-shard repair: read 734006 bytes from 11 helpers
	// Reed-Solomon would read 1048580 bytes: 30% saved
	// repaired shard matches original: true
}
