// How a linear repair plan is run over a tree of machines: one fold, two
// shapes.
//
// The fold (Fold) is a node's partial sum of the repair:
// ec.EvaluateLinearPlan over the plan's terms whose ranges the node
// holds, XORed with its children's partial sums — written down here and
// nowhere else. One node holding every term is the conventional fan-in,
// what a codec's ExecuteRepair runs with the caller's fetch callback.
// The other shape is the rack-aware tree of PlanRepairTree, one node per
// helper machine: within a rack helpers chain into one local aggregator,
// so exactly one partial sum crosses each rack's TOR uplink; the rack
// aggregators fold pairwise in a balanced binary tree (~log2 rounds, not
// ~k); and the reconstructing node asks the root for ONE target-sized
// buffer (AggPlan.Repair) where a fan-in pulls k block-sized reads into
// its NIC — the bottleneck the paper measures, moved off the newcomer's
// link. Callers differ only in their transport, how a node's ranges are
// read and its children's partial sums reach it. The tree shape has one
// transport in the system, dn.partial (the datanode daemon); the tests
// fold it in memory. ROADMAP item 4's dn.repair destination is to be
// one more caller of Fold, reading its peers over dn.read.
package engine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ec"
	"repro/internal/gf256"
)

// AggNode is one helper in the aggregation tree.
type AggNode struct {
	// Machine is the helper machine folding at this node.
	Machine int
	// Terms are the plan's terms whose ranges this machine holds.
	Terms []ec.LinearTerm
	// Children are the subtrees whose partial sums this node folds in.
	Children []*AggNode
}

// AggPlan is a planned partial-sum repair: a fold tree whose root
// produces the repaired shard.
type AggPlan struct {
	// Shard is the stripe position being repaired.
	Shard int
	// TargetSize is the folded buffer size (the stripe's shard size).
	TargetSize int64
	// Root is the final aggregator; its partial sum IS the repaired
	// shard and is what the reconstructing node downloads. It is nil
	// when every term read a phantom position: the shard is known zeros.
	Root *AggNode
}

// PlanRepairTree is what every tree-shaped repair does before it moves
// a byte: pin one holder per stripe position the plan reads and lay the
// plan's terms out over those machines as the rack-aware fold tree.
// holderOf is the caller's replica policy: it is asked once per
// position, in the order the plan first reads them, for the machine to
// read it from; ok == false marks a phantom zero position, whose terms
// contribute nothing and are dropped, and an error (no live or
// addressable holder) fails the planning. Terms of positions held by one
// machine merge into one node. The tree is deterministic: machines sort
// ascending within racks (rackOf), racks sort ascending into the heap
// order, the lowest rack's aggregator is the root.
func PlanRepairTree(plan *ec.LinearPlan, holderOf func(pos int) (machine int, ok bool, err error), rackOf func(machine int) int) (*AggPlan, error) {
	if plan == nil || plan.ShardSize <= 0 {
		return nil, errors.New("engine: invalid linear plan")
	}
	type pin struct {
		machine int
		ok      bool
	}
	pins := make(map[int]pin)
	byMachine := make(map[int][]ec.LinearTerm)
	for _, t := range plan.Terms {
		p, pinned := pins[t.Read.Shard]
		if !pinned {
			m, ok, err := holderOf(t.Read.Shard)
			if err != nil {
				return nil, err
			}
			p = pin{m, ok}
			pins[t.Read.Shard] = p
		}
		if p.ok {
			byMachine[p.machine] = append(byMachine[p.machine], t)
		}
	}
	tree := &AggPlan{Shard: plan.Shard, TargetSize: plan.ShardSize}
	if len(byMachine) == 0 {
		return tree, nil
	}

	byRack := make(map[int][]int)
	for m := range byMachine {
		r := rackOf(m)
		byRack[r] = append(byRack[r], m)
	}
	racks := make([]int, 0, len(byRack))
	for r := range byRack {
		racks = append(racks, r)
		sort.Ints(byRack[r])
	}
	sort.Ints(racks)

	// Within each rack: chain the machines below the rack aggregator
	// (the lowest machine id), so one buffer crosses the TOR.
	aggs := make([]*AggNode, len(racks))
	for i, r := range racks {
		machines := byRack[r]
		var child *AggNode
		for j := len(machines) - 1; j >= 0; j-- {
			node := &AggNode{Machine: machines[j], Terms: byMachine[machines[j]]}
			if child != nil {
				node.Children = append(node.Children, child)
			}
			child = node
		}
		aggs[i] = child
	}
	// Across racks: rack aggregators fold pairwise in a balanced binary
	// tree (heap shape: aggs[i] folds aggs[2i+1] and aggs[2i+2]). A
	// cross-rack chain would also keep every link at one buffer, but it
	// serializes ~R store-and-forward hops; the balanced tree folds in
	// ceil(log2 R) rounds with sibling subtrees in flight concurrently,
	// which is where the repair-latency win over the k-fan-in comes
	// from once per-link load is already flat.
	for i := len(aggs) - 1; i > 0; i-- {
		aggs[(i-1)/2].Children = append(aggs[(i-1)/2].Children, aggs[i])
	}
	tree.Root = aggs[0]
	return tree, nil
}

// Repair returns the repaired shard: the root's partial sum, which ask
// obtains however the caller reaches the root (a dn.partial call), or
// zeros, without asking anyone, for a tree with no root. A sum of any
// other length than TargetSize is ec.ErrShardSize.
func (p *AggPlan) Repair(ask func(root *AggNode) ([]byte, error)) ([]byte, error) {
	if p.Root == nil {
		return make([]byte, p.TargetSize), nil
	}
	sum, err := ask(p.Root)
	if err != nil {
		return nil, err
	}
	if int64(len(sum)) != p.TargetSize {
		return nil, fmt.Errorf("%w: root partial sum has %d bytes, want %d", ec.ErrShardSize, len(sum), p.TargetSize)
	}
	return sum, nil
}

// Fold computes one node's partial sum of a linear repair: terms
// evaluated into a size-byte buffer — ec.EvaluateLinearPlan, so every
// term is bounds-checked before the first read, each helper byte is read
// once and only if a term names it, and the terms fold with the fused
// kernel — XORed with the partial sums of the node's children. The two
// callbacks are the caller's transport: read returns exactly the range
// asked for, of the block at stripe position req.Shard; partials returns
// each child subtree's partial sum (nil for a leaf). The result is fresh
// memory, aliasing nothing a callback returned; a range or a sum of the
// wrong length is ec.ErrShardSize, never a panic in the kernel. Fold
// itself must stay allocation-free (repolint noalloc).
func Fold(terms []ec.LinearTerm, size int64, read ec.FetchFunc, partials func() ([][]byte, error)) ([]byte, error) {
	sum, err := ec.EvaluateLinearPlan(&ec.LinearPlan{ShardSize: size, Terms: terms}, read)
	if err != nil {
		return nil, err
	}
	parts, err := partials()
	if err != nil {
		return nil, err
	}
	for i, p := range parts {
		if int64(len(p)) != size {
			return nil, fmt.Errorf("%w: partial sum of child %d has %d bytes, want %d", ec.ErrShardSize, i, len(p), size)
		}
		gf256.XorSlice(p, sum)
	}
	return sum, nil
}

// Nodes returns every node of the tree in depth-first order.
func (p *AggPlan) Nodes() []*AggNode {
	var out []*AggNode
	var walk func(n *AggNode)
	walk = func(n *AggNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// FlattenTerms returns every local term of the tree — the effective
// coefficient set the fold computes, which must equal the linear plan's
// (the property the correctness suite asserts).
//
//repolint:ignore deadexport ROADMAP 8: the tree-or-fan-in decision keeps or deletes the whole AggPlan
func (p *AggPlan) FlattenTerms() []ec.LinearTerm {
	var out []ec.LinearTerm
	for _, n := range p.Nodes() {
		out = append(out, n.Terms...)
	}
	return out
}

// Validate checks the tree's structural invariants: every machine
// appears exactly once, every node's children outside its own rack are
// rack aggregators (each rack hands exactly one buffer upward), and
// terms stay within the target bounds.
func (p *AggPlan) Validate(rackOf func(machine int) int) error {
	if p.Root == nil {
		return errors.New("engine: aggregation plan has no root")
	}
	seen := make(map[int]bool)
	crossOut := make(map[int]int) // rack -> buffers it sends across its TOR
	for _, n := range p.Nodes() {
		if seen[n.Machine] {
			return fmt.Errorf("engine: machine %d appears twice in aggregation tree", n.Machine)
		}
		seen[n.Machine] = true
		for _, t := range n.Terms {
			if err := t.CheckBounds(p.TargetSize); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if cr := rackOf(c.Machine); cr != rackOf(n.Machine) {
				crossOut[cr]++
			}
		}
	}
	for rack, n := range crossOut {
		if n > 1 {
			return fmt.Errorf("engine: rack %d sends %d buffers across its TOR, want 1", rack, n)
		}
	}
	return nil
}
