// The stripe health registry: the control plane's map from failure
// events to repair targets. It is incremental by construction — a node
// death, restart, or replica eviction re-examines only the stripes and
// replicated blocks that event touches (the machine's recorded
// inventory, the evicted blocks), never the whole namespace —
// and it reports exactly the entries whose erasure count changed, so
// the manager upserts or cancels queue entries without rescans.
package repairmgr

import (
	"slices"
	"sync"

	"repro/internal/hdfs"
)

// StripeHealth is one stripe's current degradation.
type StripeHealth struct {
	Stripe hdfs.StripeID
	// Erasures counts real positions with no live replica; 0 means the
	// stripe recovered (cancel any pending repair).
	Erasures int
	// ShardSize sizes the repair's download estimate.
	ShardSize int64
}

// BlockHealth is one un-striped block's current degradation.
type BlockHealth struct {
	Block hdfs.BlockID
	// MissingReplicas is target minus live; 0 means recovered.
	MissingReplicas int
	// LiveReplicas counts surviving copies (0 with MissingReplicas > 0
	// means the block is lost — nothing to re-replicate from).
	LiveReplicas int
	Size         int64
}

// Registry tracks known degradations against the cluster's metadata.
// Triage only reads the plane; the Manager does the repairs.
type Registry struct {
	cluster *hdfs.Cluster

	mu      sync.Mutex
	stripes map[hdfs.StripeID]int // known erasure counts (> 0)
	blocks  map[hdfs.BlockID]int  // known missing-replica counts (> 0)
}

// NewRegistry builds an empty registry over the metadata plane.
func NewRegistry(cluster *hdfs.Cluster) *Registry {
	return &Registry{
		cluster: cluster,
		stripes: make(map[hdfs.StripeID]int),
		blocks:  make(map[hdfs.BlockID]int),
	}
}

// ExamineMachine re-derives the health of everything recorded on the
// machine — called when the detector declares it dead (new erasures
// appear) or alive again (erasures vanish; pending repairs cancel).
// Only entries whose counts CHANGED since the last examination are
// returned.
func (r *Registry) ExamineMachine(m int) ([]StripeHealth, []BlockHealth) {
	inv := r.cluster.MachineInventory(m)
	var stripes []StripeHealth
	for _, sid := range inv.Stripes {
		if h, changed := r.examineStripe(sid); changed {
			stripes = append(stripes, h)
		}
	}
	var blocks []BlockHealth
	for _, bid := range inv.Replicated {
		if h, changed := r.examineBlock(bid); changed {
			blocks = append(blocks, h)
		}
	}
	return stripes, blocks
}

// ExamineBlocks re-derives the health of specific blocks — those that
// lost a replica to an eviction. Striped blocks resolve to their stripe.
func (r *Registry) ExamineBlocks(ids []hdfs.BlockID) ([]StripeHealth, []BlockHealth) {
	var stripes []StripeHealth
	var blocks []BlockHealth
	seen := make(map[hdfs.StripeID]bool)
	for _, bid := range ids {
		info, ok := r.cluster.BlockInfoByID(bid)
		if !ok {
			continue
		}
		if info.Stripe >= 0 {
			if seen[info.Stripe] {
				continue
			}
			seen[info.Stripe] = true
			if h, changed := r.examineStripe(info.Stripe); changed {
				stripes = append(stripes, h)
			}
			continue
		}
		if h, changed := r.examineBlock(bid); changed {
			blocks = append(blocks, h)
		}
	}
	return stripes, blocks
}

// ExamineKnown re-derives the health of every stripe and block the
// registry holds degraded — after a full fixer pass, which repairs
// without going through the registry. Only entries whose counts
// changed are returned.
func (r *Registry) ExamineKnown() ([]StripeHealth, []BlockHealth) {
	r.mu.Lock()
	sids := make([]hdfs.StripeID, 0, len(r.stripes))
	for sid := range r.stripes {
		sids = append(sids, sid)
	}
	bids := make([]hdfs.BlockID, 0, len(r.blocks))
	for bid := range r.blocks {
		bids = append(bids, bid)
	}
	r.mu.Unlock()
	slices.Sort(sids)
	slices.Sort(bids)
	var stripes []StripeHealth
	for _, sid := range sids {
		if h, changed := r.examineStripe(sid); changed {
			stripes = append(stripes, h)
		}
	}
	var blocks []BlockHealth
	for _, bid := range bids {
		if h, changed := r.examineBlock(bid); changed {
			blocks = append(blocks, h)
		}
	}
	return stripes, blocks
}

// MarkStripeRepaired clears (or refreshes) a stripe entry after a
// repair attempt, returning its residual health.
func (r *Registry) MarkStripeRepaired(sid hdfs.StripeID) StripeHealth {
	h, _ := r.examineStripe(sid)
	return h
}

// MarkBlockRepaired clears (or refreshes) a block entry after a
// re-replication attempt.
func (r *Registry) MarkBlockRepaired(bid hdfs.BlockID) BlockHealth {
	h, _ := r.examineBlock(bid)
	return h
}

// examineStripe recomputes one stripe's erasure count, updates the
// registry, and reports whether the count changed.
func (r *Registry) examineStripe(sid hdfs.StripeID) (StripeHealth, bool) {
	detail, err := r.cluster.Stripe(sid)
	if err != nil {
		// Stripe vanished from the namespace: treat as recovered.
		r.mu.Lock()
		_, known := r.stripes[sid]
		delete(r.stripes, sid)
		r.mu.Unlock()
		return StripeHealth{Stripe: sid}, known
	}
	erasures := 0
	for _, p := range detail.Positions {
		if p.Block >= 0 && len(p.Locations) == 0 {
			erasures++
		}
	}
	h := StripeHealth{Stripe: sid, Erasures: erasures, ShardSize: detail.ShardSize}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, known := r.stripes[sid]
	if erasures == 0 {
		delete(r.stripes, sid)
		return h, known
	}
	r.stripes[sid] = erasures
	return h, !known || prev != erasures
}

// examineBlock recomputes one replicated block's missing-replica
// count, updates the registry, and reports whether it changed. A block
// that is gone, or was raided since (its stripe's health now stands for
// it), leaves the registry as healed.
func (r *Registry) examineBlock(bid hdfs.BlockID) (BlockHealth, bool) {
	info, ok := r.cluster.BlockInfoByID(bid)
	if !ok || info.Stripe >= 0 {
		r.mu.Lock()
		_, known := r.blocks[bid]
		delete(r.blocks, bid)
		r.mu.Unlock()
		return BlockHealth{Block: bid}, known
	}
	missing := r.cluster.Replication() - len(info.Locations)
	if missing < 0 {
		missing = 0
	}
	h := BlockHealth{Block: bid, MissingReplicas: missing, LiveReplicas: len(info.Locations), Size: info.Size}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, known := r.blocks[bid]
	if missing == 0 {
		delete(r.blocks, bid)
		return h, known
	}
	r.blocks[bid] = missing
	return h, !known || prev != missing
}

// DegradedStripes and DegradedBlocks report the registry's current
// sizes — the status RPC's health view.
func (r *Registry) DegradedStripes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stripes)
}

func (r *Registry) DegradedBlocks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.blocks)
}
