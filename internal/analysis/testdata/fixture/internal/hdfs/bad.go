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

type metaShard struct {
	mu  sync.RWMutex
	eng engine
}

func (c *metaShard) lockMeta() { c.mu.Lock() }

func (c *metaShard) brokenFixer() {
	c.mu.Lock() // lockdiscipline: raw acquisition, bypasses the instrumented helper
	defer c.mu.Unlock()
	c.eng.RunTasks(nil) // lockdiscipline: decode under the metadata mutex
	c.eng.Fold()        // lockdiscipline: the shared fold under the metadata mutex
}

type Cluster struct{ shards []*metaShard }

func (p *Cluster) aroundTheShard() {
	p.shards[0].lockMeta() // lockdiscipline: the plane takes a shard's lock outside the shard's methods
	p.shards[0].mu.Unlock()
}
