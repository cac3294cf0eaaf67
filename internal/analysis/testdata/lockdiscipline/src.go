// Golden input for the lockdiscipline analyzer: a miniature metadata
// shard and plane with the same lock vocabulary as internal/hdfs.
package hdfs

import "sync"

type engine struct{}

type scratch struct{}

func (engine) RunTasks(tasks []func(*scratch) error) []error { return nil }

type codec struct{}

func (codec) Decode(shards [][]byte) error { return nil }

type metaShard struct {
	mu   sync.RWMutex
	eng  engine
	code codec
}

// The helpers themselves are the blessed acquisition sites.
func (c *metaShard) lockMeta()  { c.mu.Lock() }
func (c *metaShard) rlockMeta() { c.mu.RLock() }

func (c *metaShard) rawLock() {
	c.mu.Lock() // want "raw c.mu.Lock"
	defer c.mu.Unlock()
}

func (c *metaShard) rawRLock() int {
	c.mu.RLock() // want "raw c.mu.RLock"
	defer c.mu.RUnlock()
	return 0
}

func (c *metaShard) decodeUnderLock() {
	c.lockMeta()
	c.eng.RunTasks(nil) // want "RunTasks called while holding the metadata mutex"
	c.mu.Unlock()
}

func (c *metaShard) decodeUnderDeferredUnlock() error {
	c.rlockMeta()
	defer c.mu.RUnlock()
	return c.code.Decode(nil) // want "Decode called while holding the metadata mutex"
}

// The phased-fixer shape: plan under the lock, decode with it
// released, apply under the lock. No findings.
func (c *metaShard) phasedFixer() {
	c.lockMeta()
	c.mu.Unlock()
	c.eng.RunTasks(nil)
	c.lockMeta()
	defer c.mu.Unlock()
}

// A closure body is its own lock scope: it runs later, under whatever
// state its caller establishes, so the outer lockMeta does not leak
// into it — but the raw-acquisition rule still applies inside.
func (c *metaShard) closureScopes() func() error {
	c.lockMeta()
	defer c.mu.Unlock()
	return func() error {
		//repolint:ignore lockdiscipline golden example of a justified per-read closure acquisition
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.code.Decode(nil) // want "Decode called while holding the metadata mutex"
	}
}

// Leaf locks on other receivers are out of scope.
type dataNode struct{ mu sync.Mutex }

func (n *dataNode) wipe() {
	n.mu.Lock()
	defer n.mu.Unlock()
}

// The plane has no metadata mutex of its own. It reaches a shard's lock
// through the shard's methods, where the rules above see it; taking
// the lock from a plane method — or any function that is not a shard
// method — would hide the acquisition from them.
type Cluster struct{ shards []*metaShard }

func (c *metaShard) locked(change func()) {
	c.lockMeta()
	defer c.mu.Unlock()
	change()
}

func (p *Cluster) throughTheShard() {
	for _, sh := range p.shards {
		sh.locked(func() {})
	}
}

func (p *Cluster) aroundTheShard() {
	for _, sh := range p.shards {
		sh.lockMeta() // want "lockMeta outside a metaShard method"
		sh.mu.Unlock()
	}
}

func firstShardStats(shards []*metaShard) {
	shards[0].rlockMeta() // want "rlockMeta outside a metaShard method"
	shards[0].mu.RUnlock()
}
