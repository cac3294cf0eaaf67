// Golden input for the layering analyzer, parsed as package
// repro/internal/sim (layer 5): same-rank and higher-rank imports are
// upward, and the concrete metadata types are off limits.
package sim

import (
	"repro/internal/hdfs"
	"repro/internal/repairmgr" // want "upward import: repro/internal/sim .layer 5. imports repro/internal/repairmgr .layer 5."
	"repro/internal/serve"     // want "upward import: repro/internal/sim .layer 5. imports repro/internal/serve .layer 6."
)

var _ = repairmgr.New
var _ = serve.Dial

// The concrete metadata plane re-couples the consumer to the
// implementation; the interface family is what consumers hold.
type harness struct {
	direct *hdfs.Cluster // want "concrete hdfs.Cluster reference"
	meta   hdfs.Metadata
}

func newHarness(c *hdfs.Cluster) *harness { // want "concrete hdfs.Cluster reference"
	//repolint:ignore layering golden example of a justified concrete reference
	var keep *hdfs.Cluster
	_ = keep
	return &harness{meta: c}
}
