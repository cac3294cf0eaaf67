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
	"slices"

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
	return c.reconstruct(shards, nil)
}

// reconstruct runs Reconstruct's passes until the shards in need (every
// nil shard when need is nil) are filled; others may stay nil.
func (c *Code) reconstruct(shards [][]byte, need []int) error {
	size, err := ec.CheckShards(shards, c.TotalShards(), true)
	if err != nil {
		return err
	}
	if need == nil {
		need = ec.MissingIndices(shards)
	}
	filled := func() bool {
		return !slices.ContainsFunc(need, func(i int) bool { return shards[i] == nil })
	}
	for {
		local := c.localPass(shards, size)
		if filled() {
			return nil
		}
		global, err := c.globalPass(shards)
		if err != nil {
			return err
		}
		if filled() {
			return nil
		}
		if !local && !global {
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
	sources, err := ec.FirstAlive(c.k, c.k+c.r, []int{idx}, alive)
	if err != nil {
		return nil, err
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
// two or more the planner runs Reconstruct's passes over which shards
// are in hand: local groups with a single missing member repair from
// their group; anything left falls back to one global decode over k
// data+global shards. A source read once serves every reconstruction
// that needs it.
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
	// held marks the surviving shards, avail those in hand as the plan
	// proceeds: the held ones, then the ones it rebuilds. Only a held
	// shard is read; a rebuilt one exists only at the repairing node.
	held := make([]bool, c.TotalShards())
	for i := range held {
		held[i] = alive(i) && !slices.Contains(missing, i)
	}
	avail := slices.Clone(held)
	read := make([]bool, len(held))
	use := func(i int) { read[i] = read[i] || held[i] }
	done := func() bool { return !slices.ContainsFunc(missing, func(m int) bool { return !avail[m] }) }
	for !done() {
		progressed := false
		// Local pass: any group with exactly one shard not in hand.
		for l, group := range c.localGroups {
			members := append(slices.Clone(group), c.k+c.r+l)
			lack, count := -1, 0
			for _, m := range members {
				if !avail[m] {
					lack, count = m, count+1
				}
			}
			if count != 1 {
				continue
			}
			for _, m := range members {
				use(m)
			}
			avail[lack] = true
			progressed = true
		}
		if done() {
			break
		}
		// Global pass: decode everything among data+globals at once;
		// only local parities can be left for the next local pass.
		if sources, err := ec.FirstAlive(c.k, c.k+c.r, nil, func(i int) bool { return avail[i] }); err == nil {
			for _, i := range sources {
				use(i)
			}
			for i := 0; i < c.k+c.r; i++ {
				avail[i] = true
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("%w: cannot rebuild all of %v", ec.ErrTooFewShards, missing)
		}
	}

	plan := &ec.RepairPlan{Shard: missing[0], ShardSize: shardSize}
	for i, r := range read {
		if r {
			plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: i, Offset: 0, Length: shardSize})
		}
	}
	return plan, nil
}

// ExecuteMultiRepair reconstructs all missing shards, returning their
// contents keyed by shard index: ec.ExecuteJointRepair, a single one
// through ExecuteRepair's linear plan, several by fetching the
// multi-repair plan's reads and running Reconstruct's alternating local
// and global passes — the planner's — on them until the missing shards
// are filled. Only the planned reads are fetched.
func (c *Code) ExecuteMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) (map[int][]byte, error) {
	return ec.ExecuteJointRepair(jointCode{c, missing}, missing, shardSize, alive, fetch)
}

// jointCode is the code ExecuteMultiRepair hands the joint executor:
// its Reconstruct stops once the missing shards are filled, since the
// plan's reads need not determine the rest (with three or more local
// groups, one the plan does not read stays empty).
type jointCode struct {
	*Code
	missing []int
}

func (j jointCode) Reconstruct(shards [][]byte) error { return j.reconstruct(shards, j.missing) }

var (
	_ ec.Code                = (*Code)(nil)
	_ ec.LinearRepairPlanner = (*Code)(nil)
)
