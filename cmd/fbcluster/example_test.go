package main

// The default study: a 24-day trace on seed 1 under RS(10,4). The
// study is seeded, so its text is pinned: a change that does not mean
// to move a paper number must leave it byte-identical.

// The default table: fbcluster with no flags.
func Example_run() {
	if err := run(24, 1, "rs", false, "", ""); err != nil {
		panic(err)
	}
	// Output:
	// Warehouse cluster study: 24 days, code rs(10,4)
	//
	//  day   unavailable    events      blocks      cross-rack
	//    0            49        18       83392       154.17 TB
	//    1            42        17       74336       137.96 TB
	//    2           252        32      155325       286.95 TB
	//    3            55        22      132610       245.43 TB
	//    4            42        16      119134       220.59 TB
	//    5            38         5       29274        54.12 TB
	//    6            53        15       87035       160.91 TB
	//    7            66        20      100602       186.16 TB
	//    8            51        25      134830       249.04 TB
	//    9            49        23      105515       195.06 TB
	//   10           139        24      143756       265.76 TB
	//   11            58        19       83636       154.77 TB
	//   12            49        17      114957       212.71 TB
	//   13            45        13       58176       107.85 TB
	//   14            52        18      111182       205.50 TB
	//   15            51        18       97908       181.10 TB
	//   16            52        21      105882       196.02 TB
	//   17            59        19      123135       227.76 TB
	//   18            39        10       70255       130.06 TB
	//   19           161        21       93690       173.54 TB
	//   20            53        17       85113       157.75 TB
	//   21            53        14       79829       147.96 TB
	//   22            43        11       55745       103.25 TB
	//   23            51        19       92930       171.85 TB
	//
	// Fig. 3a  median machines unavailable/day : 52   (paper: >50)
	// Fig. 3b  median blocks reconstructed/day : 95799   (paper: 95,500)
	// Fig. 3b  median cross-rack traffic/day   : 177.32 TB   (paper: >180 TB under RS)
	//          total cross-rack traffic        : 4.22 PB over 24 days
	//          mean recovery time per block    : 16.295s
	//
	// §2.2     missing blocks per affected stripe (paper: 98.08% / 1.87% / 0.05%):
	//          1 missing: 98.10%   2 missing: 1.87%   >=3 missing: 0.03%
	//
	// Fig. 3a  distribution of machines unavailable per day:
	//             0-  32 |                                          0 days
	//            32-  63 | ######################################## 20 days
	//            63-  95 | ##                                       1 days
	//            95- 126 |                                          0 days
	//           126- 158 | ##                                       1 days
	//           158- 190 | ##                                       1 days
	//           190- 221 |                                          0 days
	//           221- 253 | ##                                       1 days
}
