package main

// The program is seeded, so its stdout is pinned: a change that does
// not mean to move a number must leave it byte-identical.
func Example() {
	main()
	// Output:
	// Fig. 4 layout (each node stores [a-byte, b-byte]):
	//   node 1 (a1,b1)                    = [0x12 0x56]
	//   node 2 (a2,b2)                    = [0x34 0x78]
	//   node 3 (parity 1)                 = [0x5e 0x0a]
	//   node 4 (parity 2 + piggyback a1)  = [0x78 0x36]
	// piggyback groups: [[0]] (only node 1 is piggybacked, like the paper)
	//
	// recovering node 1 downloads 3 bytes (RS needs 4):
	//   read b-byte of node 2
	//   read b-byte of node 3
	//   read b-byte of node 4
	//
	// recovered node 1 = [0x12 0x56], original = [0x12 0x56], match = true
	//
	// fault tolerance (any 2 of 4 nodes):
	//   lose nodes 1+2: recovered = true
	//   lose nodes 1+3: recovered = true
	//   lose nodes 1+4: recovered = true
	//   lose nodes 2+3: recovered = true
	//   lose nodes 2+4: recovered = true
	//   lose nodes 3+4: recovered = true
}
