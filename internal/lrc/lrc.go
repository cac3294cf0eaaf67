// Package lrc implements a Locally Repairable Code in the style of
// HDFS-Xorbas / Windows Azure Storage — the related-work baseline the
// paper compares Piggybacked-RS against (§5).
//
// A (k, r, g) LRC stores k data shards, r global Reed-Solomon parities,
// and g local parities, each local parity being the XOR of one group of
// roughly k/g data shards. Shard layout:
//
//	[0, k)        data shards
//	[k, k+r)      global RS parities
//	[k+r, k+r+g)  local XOR parities
//
// A single lost data shard is rebuilt from its local group — for the
// Xorbas configuration (k=10, r=4, g=2) that is 5 downloads instead of
// the 10 an RS code needs. The price, and the paper's §5 criticism, is
// storage: the local parities are extra blocks, so the overhead is
// (k+r+g)/k = 1.6x versus 1.4x — the code is not MDS, hence not
// storage-optimal, while Piggybacked-RS achieves its savings at 1.4x.
package lrc

import (
	"bytes"
	"fmt"

	"repro/internal/ec"
	"repro/internal/gf256"
	"repro/internal/rs"
)

// Code is a (k, r, g) locally repairable codec. It is safe for
// concurrent use.
type Code struct {
	k      int
	r      int
	nLocal int

	// rsc generates the r global parities from the k data shards.
	rsc *rs.Code

	// localGroups[l] lists the data shard indices covered by local
	// parity l (shard index k+r+l).
	localGroups [][]int

	// localOf[i] is the local group of data shard i.
	localOf []int

	name string
}

// New constructs a (k, r, g) LRC: k data shards, r global RS parities,
// g local XOR parities over a near-even partition of the data shards.
// The Xorbas configuration from the paper's related work is New(10, 4, 2).
func New(k, r, g int, opts ...rs.Option) (*Code, error) {
	if g < 1 {
		return nil, fmt.Errorf("lrc: need at least one local group, got %d", g)
	}
	if g > k {
		return nil, fmt.Errorf("lrc: more local groups (%d) than data shards (%d)", g, k)
	}
	rsc, err := rs.New(k, r, opts...)
	if err != nil {
		return nil, fmt.Errorf("lrc: %w", err)
	}
	groups := make([][]int, g)
	base, extra := k/g, k%g
	next := 0
	localOf := make([]int, k)
	for l := 0; l < g; l++ {
		size := base
		if l < extra {
			size++
		}
		for j := 0; j < size; j++ {
			groups[l] = append(groups[l], next)
			localOf[next] = l
			next++
		}
	}
	return &Code{
		k:           k,
		r:           r,
		nLocal:      g,
		rsc:         rsc,
		localGroups: groups,
		localOf:     localOf,
		name:        fmt.Sprintf("lrc(%d,%d,%d)", k, r, g),
	}, nil
}

// Name returns the codec name, e.g. "lrc(10,4,2)".
func (c *Code) Name() string { return c.name }

// DataShards returns k.
func (c *Code) DataShards() int { return c.k }

// ParityShards returns the total parity count r+g (global plus local).
func (c *Code) ParityShards() int { return c.r + c.nLocal }

// TotalShards returns k+r+g.
func (c *Code) TotalShards() int { return c.k + c.r + c.nLocal }

// MinShardSize returns 1.
func (c *Code) MinShardSize() int { return 1 }

// StorageOverhead returns (k+r+g)/k — 1.6 for the Xorbas (10,4,2)
// configuration, versus 1.4 for (10,4) RS and Piggybacked-RS.
func (c *Code) StorageOverhead() float64 {
	return float64(c.TotalShards()) / float64(c.k)
}

// Encode computes the r global and g local parity shards from the k
// data shards, allocating nil parity entries.
func (c *Code) Encode(shards [][]byte) error {
	if len(shards) != c.TotalShards() {
		return fmt.Errorf("%w: got %d, want %d", ec.ErrShardCount, len(shards), c.TotalShards())
	}
	size := -1
	for i := 0; i < c.k; i++ {
		if shards[i] == nil || len(shards[i]) == 0 {
			return fmt.Errorf("%w: data shard %d missing", ec.ErrShardSize, i)
		}
		if size == -1 {
			size = len(shards[i])
		} else if len(shards[i]) != size {
			return fmt.Errorf("%w: data shard %d has %d bytes, others %d", ec.ErrShardSize, i, len(shards[i]), size)
		}
	}
	for j := c.k; j < c.TotalShards(); j++ {
		if shards[j] == nil {
			shards[j] = make([]byte, size)
		} else if len(shards[j]) != size {
			return fmt.Errorf("%w: parity shard %d has %d bytes, data has %d", ec.ErrShardSize, j, len(shards[j]), size)
		}
	}
	// Global parities: plain RS over the data shards.
	for j := 0; j < c.r; j++ {
		if err := c.rsc.EncodeParityInto(shards[:c.k], j, shards[c.k+j]); err != nil {
			return err
		}
	}
	// Local parities: one fused XOR pass over each group.
	for l, group := range c.localGroups {
		p := shards[c.k+c.r+l]
		for i := range p {
			p[i] = 0
		}
		gf256.XorAllSlices(groupSlices(shards, group, -1), p)
	}
	return nil
}

// groupSlices gathers the shard slices of the given indices, skipping
// the index skip (pass -1 to keep all), for the fused XOR kernels.
func groupSlices(shards [][]byte, members []int, skip int) [][]byte {
	out := make([][]byte, 0, len(members))
	for _, m := range members {
		if m == skip {
			continue
		}
		out = append(out, shards[m])
	}
	return out
}

// Verify reports whether all parity shards are consistent with the data.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := ec.CheckShards(shards, c.TotalShards(), false)
	if err != nil {
		return false, err
	}
	scratch := make([]byte, size)
	for j := 0; j < c.r; j++ {
		if err := c.rsc.EncodeParityInto(shards[:c.k], j, scratch); err != nil {
			return false, err
		}
		if !bytes.Equal(scratch, shards[c.k+j]) {
			return false, nil
		}
	}
	for l, group := range c.localGroups {
		for i := range scratch {
			scratch[i] = 0
		}
		gf256.XorAllSlices(groupSlices(shards, group, -1), scratch)
		if !bytes.Equal(scratch, shards[c.k+c.r+l]) {
			return false, nil
		}
	}
	return true, nil
}

// Reconstruct fills in every nil shard in place. It alternates local
// XOR repairs (any group with a single missing member) with global RS
// decoding until every shard is restored or no further progress is
// possible.
func (c *Code) Reconstruct(shards [][]byte) error {
	size, err := ec.CheckShards(shards, c.TotalShards(), true)
	if err != nil {
		return err
	}
	for {
		progressed := false
		if c.localPass(shards, size) {
			progressed = true
		}
		changed, err := c.globalPass(shards)
		if err != nil {
			return err
		}
		if changed {
			progressed = true
		}
		if len(ec.MissingIndices(shards)) == 0 {
			return nil
		}
		if !progressed {
			return fmt.Errorf("%w: %d shards unrecoverable", ec.ErrTooFewShards, len(ec.MissingIndices(shards)))
		}
	}
}

// localPass repairs every local group that has exactly one missing
// member (data or local parity). Returns whether anything was repaired.
func (c *Code) localPass(shards [][]byte, size int) bool {
	repaired := false
	for l, group := range c.localGroups {
		pIdx := c.k + c.r + l
		missing := -1
		count := 0
		if shards[pIdx] == nil {
			missing, count = pIdx, 1
		}
		for _, m := range group {
			if shards[m] == nil {
				missing = m
				count++
			}
		}
		if count != 1 {
			continue
		}
		out := make([]byte, size)
		members := group
		if missing != pIdx {
			members = append(append([]int(nil), group...), pIdx)
		}
		gf256.XorAllSlices(groupSlices(shards, members, missing), out)
		shards[missing] = out
		repaired = true
	}
	return repaired
}

// globalPass attempts an RS decode over data+global shards; on success
// it fills all missing data and global parities and returns true.
func (c *Code) globalPass(shards [][]byte) (bool, error) {
	sub := make([][]byte, c.k+c.r)
	copy(sub, shards[:c.k+c.r])
	present := ec.CountPresent(sub)
	if present < c.k || present == c.k+c.r {
		return false, nil
	}
	if err := c.rsc.Reconstruct(sub); err != nil {
		return false, err
	}
	changed := false
	for i := 0; i < c.k+c.r; i++ {
		if shards[i] == nil {
			shards[i] = sub[i]
			changed = true
		}
	}
	return changed, nil
}

// PlanRepair returns the reads needed to repair shard idx. A data shard
// or local parity whose local group is intact costs one local group
// (k/g reads); anything else falls back to k full reads over the
// data+global shards. These are exactly the reads of the linear plan.
func (c *Code) PlanRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	plan, err := c.PlanLinearRepair(idx, shardSize, alive)
	if err != nil {
		return nil, err
	}
	return plan.RepairPlan(), nil
}

// localSources returns the other members of idx's local group (including
// the local parity, or the group members for a local parity) if idx
// belongs to a group and every other member is alive.
func (c *Code) localSources(idx int, alive ec.AliveFunc) ([]int, bool) {
	var l int
	switch {
	case idx < c.k:
		l = c.localOf[idx]
	case idx >= c.k+c.r:
		l = idx - c.k - c.r
	default:
		return nil, false // global parity: no local group
	}
	members := append([]int(nil), c.localGroups[l]...)
	members = append(members, c.k+c.r+l)
	sources := make([]int, 0, len(members)-1)
	for _, m := range members {
		if m == idx {
			continue
		}
		if !alive(m) {
			return nil, false
		}
		sources = append(sources, m)
	}
	return sources, true
}

// PlanLinearRepair expresses the repair of shard idx as a linear plan
// over whole surviving shards: a local repair is an XOR of the group
// (all coefficients 1); a global repair uses the RS decode vector over
// k data+global survivors, composing the group XOR on top when the
// target is a local parity. A survivor whose coefficient cancels to
// zero is not read.
func (c *Code) PlanLinearRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.LinearPlan, error) {
	if err := ec.CheckRepairTarget(c, idx, shardSize, alive); err != nil {
		return nil, err
	}
	plan := &ec.LinearPlan{Shard: idx, ShardSize: shardSize}
	if sources, ok := c.localSources(idx, alive); ok {
		for _, s := range sources {
			plan.Terms = append(plan.Terms, ec.LinearTerm{
				Read:  ec.ReadRequest{Shard: s, Offset: 0, Length: shardSize},
				Coeff: 1,
			})
		}
		return plan, nil
	}
	sources := make([]int, 0, c.k)
	for i := 0; i < c.k+c.r && len(sources) < c.k; i++ {
		if i != idx && alive(i) {
			sources = append(sources, i)
		}
	}
	if len(sources) < c.k {
		return nil, fmt.Errorf("%w: %d alive among data+global, need %d", ec.ErrTooFewShards, len(sources), c.k)
	}
	coeffs := make([]byte, c.k)
	if idx < c.k+c.r {
		ct, err := c.rsc.RecoveryCoefficients(idx, sources)
		if err != nil {
			return nil, err
		}
		copy(coeffs, ct)
	} else {
		// Local parity through the global path: XOR of its group
		// members, each substituted by its decode combination.
		for _, m := range c.localGroups[idx-c.k-c.r] {
			cm, err := c.rsc.RecoveryCoefficients(m, sources)
			if err != nil {
				return nil, err
			}
			for j := range coeffs {
				coeffs[j] ^= cm[j]
			}
		}
	}
	for j, s := range sources {
		if coeffs[j] == 0 {
			continue
		}
		plan.Terms = append(plan.Terms, ec.LinearTerm{
			Read:  ec.ReadRequest{Shard: s, Offset: 0, Length: shardSize},
			Coeff: coeffs[j],
		})
	}
	return plan, nil
}

// ExecuteRepair reconstructs shard idx with one evaluation of its
// linear plan: a local repair is one fused XOR over the group, a global
// one a single multiply-accumulate over k survivors.
func (c *Code) ExecuteRepair(idx int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) ([]byte, error) {
	return ec.ExecuteLinearRepair(c, idx, shardSize, alive, fetch)
}

// PlanMultiRepair returns the reads to repair every missing shard of a
// stripe in one pass; a single missing shard is PlanRepair's plan. For
// two or more the planner mirrors Reconstruct: local groups
// with a single missing member repair from their group; anything left
// falls back to one global decode over k alive data+global shards. A
// source read once serves every reconstruction that needs it.
func (c *Code) PlanMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	if err := ec.CheckMissing(missing, c.TotalShards(), alive); err != nil {
		return nil, err
	}
	if len(missing) == 1 {
		return c.PlanRepair(missing[0], shardSize, alive)
	}
	if shardSize <= 0 {
		return nil, fmt.Errorf("%w: shard size %d", ec.ErrShardSize, shardSize)
	}
	// Track availability as the plan "repairs" shards. Shards the plan
	// itself repairs become available as decode inputs but must never
	// be scheduled as network reads — they are dead on the wire; their
	// content exists only at the repairing node.
	avail := make([]bool, c.TotalShards())
	for i := range avail {
		avail[i] = alive(i)
	}
	for _, m := range missing {
		avail[m] = false
	}
	need := make(map[int]bool, len(missing))
	for _, m := range missing {
		need[m] = true
	}
	reads := make(map[int]bool)
	repairedByPlan := make(map[int]bool)

	addRead := func(i int) {
		if !repairedByPlan[i] {
			reads[i] = true
		}
	}
	addGroupReads := func(l, skip int) {
		for _, m := range c.localGroups[l] {
			if m != skip {
				addRead(m)
			}
		}
		if p := c.k + c.r + l; p != skip {
			addRead(p)
		}
	}

	for len(need) > 0 {
		progressed := false
		// Local pass: any group with exactly one unavailable member.
		for l, group := range c.localGroups {
			pIdx := c.k + c.r + l
			miss, count := -1, 0
			members := append(append([]int(nil), group...), pIdx)
			for _, m := range members {
				if !avail[m] {
					miss = m
					count++
				}
			}
			if count != 1 {
				continue
			}
			addGroupReads(l, miss)
			avail[miss] = true
			repairedByPlan[miss] = true
			delete(need, miss)
			progressed = true
		}
		if len(need) == 0 {
			break
		}
		// Global pass: decode everything among data+globals at once.
		aliveDG := 0
		for i := 0; i < c.k+c.r; i++ {
			if avail[i] {
				aliveDG++
			}
		}
		if aliveDG >= c.k {
			count := 0
			for i := 0; i < c.k+c.r && count < c.k; i++ {
				if avail[i] {
					addRead(i)
					count++
				}
			}
			for i := 0; i < c.k+c.r; i++ {
				if !avail[i] {
					avail[i] = true
					repairedByPlan[i] = true
					delete(need, i)
				}
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("%w: %d shards unrecoverable", ec.ErrTooFewShards, len(need))
		}
	}

	plan := &ec.RepairPlan{Shard: missing[0], ShardSize: shardSize}
	for i := 0; i < c.TotalShards(); i++ {
		if reads[i] {
			plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: i, Offset: 0, Length: shardSize})
		}
	}
	return plan, nil
}

// ExecuteMultiRepair reconstructs all missing shards — one through
// ExecuteRepair's linear plan, several by fetching the multi-repair
// plan's reads and mirroring the planner's pass order:
// local XOR repairs where a group lacks exactly one member, a global RS
// decode for the rest. Only the planned reads are consumed — alive
// shards outside the plan are never touched.
func (c *Code) ExecuteMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) (map[int][]byte, error) {
	if len(missing) == 1 {
		shard, err := c.ExecuteRepair(missing[0], shardSize, alive, fetch)
		if err != nil {
			return nil, err
		}
		return map[int][]byte{missing[0]: shard}, nil
	}
	plan, err := c.PlanMultiRepair(missing, shardSize, alive)
	if err != nil {
		return nil, err
	}
	have, err := ec.FetchShards(plan, c.TotalShards(), fetch)
	if err != nil {
		return nil, err
	}
	need := make(map[int]bool, len(missing))
	for _, m := range missing {
		need[m] = true
	}

	for len(need) > 0 {
		progressed := false
		// Local pass: a needed shard whose group is otherwise in hand.
		for l, group := range c.localGroups {
			pIdx := c.k + c.r + l
			members := append(append([]int(nil), group...), pIdx)
			miss, lack := -1, 0
			for _, m := range members {
				if have[m] == nil {
					miss = m
					lack++
				}
			}
			if lack != 1 || !need[miss] {
				continue
			}
			out := make([]byte, shardSize)
			gf256.XorAllSlices(groupSlices(have, members, miss), out)
			have[miss] = out
			delete(need, miss)
			progressed = true
		}
		if len(need) == 0 {
			break
		}
		// Global pass: decode data+globals from whatever is in hand.
		present := 0
		for i := 0; i < c.k+c.r; i++ {
			if have[i] != nil {
				present++
			}
		}
		if present >= c.k && present < c.k+c.r {
			sub := make([][]byte, c.k+c.r)
			copy(sub, have[:c.k+c.r])
			if err := c.rsc.Reconstruct(sub); err != nil {
				return nil, err
			}
			for i := 0; i < c.k+c.r; i++ {
				if have[i] == nil {
					have[i] = sub[i]
					delete(need, i)
					progressed = true
				}
			}
		}
		if !progressed {
			return nil, fmt.Errorf("%w: %d shards unrecoverable during execution", ec.ErrTooFewShards, len(need))
		}
	}

	out := make(map[int][]byte, len(missing))
	for _, m := range missing {
		out[m] = have[m]
	}
	return out, nil
}

var (
	_ ec.Code                = (*Code)(nil)
	_ ec.LinearRepairPlanner = (*Code)(nil)
)
