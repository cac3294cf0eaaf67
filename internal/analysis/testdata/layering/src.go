// Golden input for the layering analyzer, parsed as package
// repro/internal/sim (layer 5): same-rank and higher-rank imports are
// upward.
package sim

import (
	"repro/internal/hdfs"
	"repro/internal/repairmgr" // want "upward import: repro/internal/sim .layer 5. imports repro/internal/repairmgr .layer 5."
	"repro/internal/serve"     // want "upward import: repro/internal/sim .layer 5. imports repro/internal/serve .layer 6."
)

var _ = hdfs.New
var _ = repairmgr.New
var _ = serve.Dial
