package main

// The three tables at their defaults. They are closed-form, so their
// text is pinned: a change that does not mean to move a paper number
// must leave it byte-identical.

// repaircost with no flags: one (10,4) configuration at 256 MB shards.
func Example_oneConfig() {
	if err := oneConfig(10, 4, 256<<20); err != nil {
		panic(err)
	}
	// Output:
	// Single-shard repair cost, (10,4), shard size 256.00 MB
	//
	// rs(10,4)  (overhead 1.40x)
	//   position:  1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00
	//   download per repair: avg 2.50 GB (100.0% of RS); data-shard avg 0.0% savings
	//
	// piggybacked-rs(10,4)  (overhead 1.40x)
	//   position:  0.70 0.70 0.70 0.70 0.65 0.65 0.65 0.65 0.65 0.65 1.00 1.00 1.00 1.00
	//   download per repair: avg 1.91 GB (76.4% of RS); data-shard avg 33.0% savings
	//
	// lrc(10,4,2)  (overhead 1.60x)
	//   position:  0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 1.00 1.00 1.00 1.00 0.50 0.50
	//   download per repair: avg 1.56 GB (62.5% of RS); data-shard avg 50.0% savings
	//
	// Piggyback groups: [[0 1 2 3] [4 5 6] [7 8 9]]
}

// repaircost -sweep: the (k, r) sweep.
func Example_sweepTable() {
	if err := sweepTable(256 << 20); err != nil {
		panic(err)
	}
	// Output:
	// Average single-shard repair fraction (of the RS baseline), shard size 256.00 MB
	//
	//        k        r |       rs     pbrs     pbrs(data)   pbrs savings
	//        4        2 |    1.000    0.917          0.875           8.3%
	//        4        3 |    1.000    0.857          0.750          14.3%
	//        4        4 |    1.000    0.844          0.688          15.6%
	//        4        5 |    1.000    0.833          0.625          16.7%
	//        6        2 |    1.000    0.906          0.875           9.4%
	//        6        3 |    1.000    0.833          0.750          16.7%
	//        6        4 |    1.000    0.800          0.667          20.0%
	//        6        5 |    1.000    0.803          0.639          19.7%
	//        8        2 |    1.000    0.900          0.875          10.0%
	//        8        3 |    1.000    0.818          0.750          18.2%
	//        8        4 |    1.000    0.781          0.672          21.9%
	//        8        5 |    1.000    0.769          0.625          23.1%
	//       10        2 |    1.000    0.896          0.875          10.4%
	//       10        3 |    1.000    0.808          0.750          19.2%
	//       10        4 |    1.000    0.764          0.670          23.6%
	//       10        5 |    1.000    0.753          0.630          24.7%
	//       12        2 |    1.000    0.893          0.875          10.7%
	//       12        3 |    1.000    0.800          0.750          20.0%
	//       12        4 |    1.000    0.750          0.667          25.0%
	//       12        5 |    1.000    0.735          0.625          26.5%
	//       14        2 |    1.000    0.891          0.875          10.9%
	//       14        3 |    1.000    0.794          0.750          20.6%
	//       14        4 |    1.000    0.742          0.668          25.8%
	//       14        5 |    1.000    0.726          0.628          27.4%
	//
	// rs column: every RS repair downloads the full stripe data (fraction 1.0).
	// pbrs(data): average over data shards only — the paper's ~30% for (10,4).
}

// repaircost -bounds: the §5 regenerating-code bounds.
func Example_boundsTable() {
	if err := boundsTable(10, 4); err != nil {
		panic(err)
	}
	// Output:
	// Single-failure repair download as a fraction of stripe data, (10,4), d=13 helpers
	//
	// scheme                               download    storage
	// reed-solomon (deployed)                 1.000      1.40x
	// piggybacked-rs (data-shard avg)         0.670      1.40x
	// piggybacked-rs (all-shard avg)          0.764      1.40x
	// lrc (not storage optimal, §5)           0.625      1.60x
	// MSR bound (storage-optimal floor)       0.325      1.40x
	// MBR bound (any-storage floor)           0.153      1.53x
	//
	// piggybacking captures 49% of the saving any storage-optimal code could
	// achieve, with none of the (k, r) restrictions of explicit regenerating codes (§5).
}
