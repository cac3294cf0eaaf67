package main

// Both sweeps at the default 256 MB block. The model is closed-form,
// so its text is pinned: a change that does not mean to move a paper
// number must leave it byte-identical.

// mttdl with no flags: the node-failure-rate sweep.
func Example_run_failure() {
	if err := run(256<<20, "failure"); err != nil {
		panic(err)
	}
	// Output:
	// MTTDL (years/stripe), block 256.00 MB — §3.2 reliability model
	//
	// parameter                        replication(3)             rs(10,4) piggybacked-rs(10,4)          lrc(10,4,2)
	// MTBF 1 months                          3.19e+09             1.86e+12             5.45e+12             3.03e+20
	// MTBF 3 months                          8.62e+10             4.52e+14             1.32e+15             6.62e+23
	// MTBF 6 months                           6.9e+11             1.45e+16             4.24e+16             8.48e+25
	// MTBF 12 months                         5.52e+12             4.63e+17             1.36e+18             1.09e+28
	// MTBF 24 months                         4.41e+13             1.48e+19             4.34e+19             1.39e+30
	//
	// Reading the table: Piggybacked-RS holds a constant multiplier over RS at
	// every point (its repairs always move ~24% fewer bytes); both erasure codes
	// dominate 3-way replication per stripe while storing half as much.
}

// mttdl -sweep bandwidth: the recovery-bandwidth sweep.
func Example_run_bandwidth() {
	if err := run(256<<20, "bandwidth"); err != nil {
		panic(err)
	}
	// Output:
	// MTTDL (years/stripe), block 256.00 MB — §3.2 reliability model
	//
	// parameter                        replication(3)             rs(10,4) piggybacked-rs(10,4)          lrc(10,4,2)
	// repair 5 MB/s                           6.9e+09             1.45e+12             4.24e+12             8.48e+19
	// repair 10 MB/s                         2.76e+10             2.31e+13             6.78e+13             5.43e+21
	// repair 25 MB/s                         1.72e+11             9.04e+14             2.65e+15             1.32e+24
	// repair 50 MB/s                          6.9e+11             1.45e+16             4.24e+16             8.48e+25
	// repair 100 MB/s                        2.76e+12             2.31e+17             6.78e+17             5.43e+27
	// repair 200 MB/s                         1.1e+13              3.7e+18             1.08e+19             3.47e+29
	//
	// Reading the table: Piggybacked-RS holds a constant multiplier over RS at
	// every point (its repairs always move ~24% fewer bytes); both erasure codes
	// dominate 3-way replication per stripe while storing half as much.
}
