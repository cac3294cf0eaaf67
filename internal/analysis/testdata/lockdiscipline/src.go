// Golden input for the lockdiscipline analyzer: a miniature cluster
// with the same lock vocabulary as internal/hdfs.
package hdfs

import "sync"

type engine struct{}

type scratch struct{}

func (engine) RunTasks(tasks []func(*scratch) error) []error { return nil }

type codec struct{}

func (codec) Decode(shards [][]byte) error { return nil }

func (codec) Encode(shards [][]byte) error { return nil }

type Cluster struct {
	mu   sync.RWMutex
	eng  engine
	code codec
}

// The helpers themselves are the blessed acquisition sites.
func (c *Cluster) lockMeta()  { c.mu.Lock() }
func (c *Cluster) rlockMeta() { c.mu.RLock() }

func (c *Cluster) rawLock() {
	c.mu.Lock() // want "raw c.mu.Lock"
	defer c.mu.Unlock()
}

func (c *Cluster) rawRLock() int {
	c.mu.RLock() // want "raw c.mu.RLock"
	defer c.mu.RUnlock()
	return 0
}

func (c *Cluster) decodeUnderLock() {
	c.lockMeta()
	c.eng.RunTasks(nil) // want "RunTasks called while holding the metadata mutex"
	c.mu.Unlock()
}

func (c *Cluster) decodeUnderDeferredUnlock() error {
	c.rlockMeta()
	defer c.mu.RUnlock()
	return c.code.Decode(nil) // want "Decode called while holding the metadata mutex"
}

// The phased-fixer shape: plan under the lock, decode with it
// released, apply under the lock. No findings.
func (c *Cluster) phasedFixer() {
	c.lockMeta()
	c.mu.Unlock()
	c.eng.RunTasks(nil)
	c.lockMeta()
	defer c.mu.Unlock()
}

// A closure body is its own lock scope: it runs later, under whatever
// state its caller establishes, so the outer lockMeta does not leak
// into it — but the raw-acquisition rule still applies inside.
func (c *Cluster) closureScopes() func() error {
	c.lockMeta()
	defer c.mu.Unlock()
	return func() error {
		//repolint:ignore lockdiscipline golden example of a justified per-read closure acquisition
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.code.Decode(nil) // want "Decode called while holding the metadata mutex"
	}
}

// A *Locked method is entered with the lock held — its documented
// contract — so its body replays from the held state, and a call one
// frame below the lockMeta that guards it is seen.
func (c *Cluster) encodeStripeLocked() error {
	return c.code.Encode(nil) // want "Encode called while holding the metadata mutex"
}

func (c *Cluster) storeReplicaLocked(n *dataNode) error {
	return n.storeBlock(nil) // want "storeBlock called while holding the metadata mutex"
}

func (c *Cluster) storeCheckedLocked(n *dataNode) error {
	return n.storeChecked(nil, 0) // want "storeChecked called while holding the metadata mutex"
}

// A plain helper is entered without the lock: storing there is what the
// plan / I/O / commit split is for.
func (c *Cluster) storeReplica(n *dataNode) error {
	return n.storeBlock(nil)
}

// Leaf locks on other receivers are out of scope.
type dataNode struct{ mu sync.Mutex }

func (n *dataNode) storeBlock(data []byte) error { return nil }

func (n *dataNode) storeChecked(data []byte, want uint32) error { return nil }

func (n *dataNode) wipe() {
	n.mu.Lock()
	defer n.mu.Unlock()
}
