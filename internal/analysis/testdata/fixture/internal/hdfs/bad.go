// Fixture package: every lockdiscipline rule (and the hdfs→serve
// upward import) is deliberately violated so CI can assert the
// analyzers still fire. See cmd/repolint -expect-all.
package hdfs

import (
	"sync"

	"repro/internal/serve" // layering: upward import (hdfs is layer 4, serve is layer 6)
)

var _ = serve.Dial

type engine struct{}

type scratch struct{}

func (engine) RunTasks(tasks []func(*scratch) error) []error { return nil }

func (engine) Fold() []byte { return nil }

type Cluster struct {
	mu  sync.RWMutex
	eng engine
}

func (c *Cluster) lockMeta() { c.mu.Lock() }

func (c *Cluster) brokenFixer() {
	c.mu.Lock() // lockdiscipline: raw acquisition, bypasses the instrumented helper
	defer c.mu.Unlock()
	c.eng.RunTasks(nil) // lockdiscipline: decode under the metadata mutex
	c.eng.Fold()        // lockdiscipline: the shared fold under the metadata mutex
}
