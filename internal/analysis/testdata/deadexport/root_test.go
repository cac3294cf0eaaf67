package mini

import (
	"testing"

	"mini/internal/lib"
)

// The module root's tests are the paper map's Benchmark column: what
// they call is live.
func TestRoot(t *testing.T) { lib.UsedByRootTest() }
