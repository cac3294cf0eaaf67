// Package core implements the paper's primary contribution: the
// Piggybacking framework and the Piggybacked-RS erasure code proposed as
// a drop-in replacement for the (10,4) Reed-Solomon code on Facebook's
// warehouse cluster.
//
// # Construction
//
// A Piggybacked-RS code couples two byte-level substripes of an existing
// systematic (k, r) RS code (substripes "a" and "b"). Every shard of
// size L holds its a-symbol in the first L/2 bytes and its b-symbol in
// the second L/2 bytes. The a-substripe is a plain RS codeword. The
// b-substripe is a plain RS codeword with "piggybacks" added: parity 1
// is left clean, and for j = 2..r, the b-half of parity j additionally
// carries the XOR of the a-symbols of one group of data shards. The data
// shards are partitioned into r-1 such groups (this generalises
// Example 1 / Fig. 4 of the paper, where k=2, r=2 and the single
// piggyback is a1).
//
// # Why it stays MDS
//
// Piggybacks only ever modify b-halves of parities 2..r. The a-substripe
// is therefore decodable from any k surviving shards; once the data
// a-symbols are known every piggyback is computable and can be stripped,
// reducing the b-substripe to clean RS. Hence any r shard failures are
// tolerated, for any choice of piggyback groups, with zero extra
// storage — the two properties (MDS, arbitrary (k, r)) the paper insists
// on keeping.
//
// # Why repair gets cheaper
//
// To repair a data shard i belonging to a group of size s:
//
//  1. download the b-halves of the other k-1 data shards and of parity 1
//     (k half-shards) and decode the b-substripe — this yields b_i;
//  2. download the b-half of the piggybacked parity for i's group
//     (1 half-shard), subtract the parity's RS value (computable from
//     step 1) to expose the piggyback XOR;
//  3. download the a-halves of the other s-1 group members and XOR them
//     out, leaving a_i.
//
// Total: (k+s)/2 shard-equivalents instead of the k whole shards RS
// moves — for (10,4) with groups {4,3,3}, a 30-35% saving on data-shard
// repair, matching the paper's "~30% on average" claim. Parity repair
// falls back to the RS cost, as does any repair whose preferred helpers
// are unavailable.
//
// # How a repair executes
//
// The three steps above are the algebra, not the code path. Every step
// is linear over GF(2^8), so PlanLinearRepair composes them — for the
// cheap path and for the whole-shard fallback alike — into one
// coefficient per (helper range, target half), and ExecuteRepair is a
// single evaluation of that plan (ec.EvaluateLinearPlan): each range
// fetched once, both target halves folded straight out of the fetched
// buffers, nothing but the target computed. Only a repair of two or
// more shards of one stripe runs the joint Reconstruct decode.
package core

import (
	"fmt"
	"sort"

	"repro/internal/ec"
	"repro/internal/gf256"
	"repro/internal/rs"
)

// Code is a Piggybacked-RS codec. It is safe for concurrent use.
type Code struct {
	k int
	r int

	// rsc is the underlying systematic RS code applied independently to
	// the two substripes.
	rsc *rs.Code

	// groups[g] lists the data shard indices whose a-symbols are XORed
	// onto the b-half of parity g+1 (parity 0 is never piggybacked).
	groups [][]int

	// groupOf[i] is the group index of data shard i, or -1 if shard i
	// carries no piggyback (possible when r == 2 and k > 1).
	groupOf []int

	name string
}

// Option configures a Code at construction time.
type Option func(*options) error

type options struct {
	groups [][]int
	cauchy bool
}

// WithGroups overrides the default piggyback grouping. Each group lists
// data shard indices; groups must be disjoint, non-empty, within range,
// and there may be at most r-1 of them.
func WithGroups(groups [][]int) Option {
	return func(o *options) error {
		o.groups = groups
		return nil
	}
}

// WithCauchy selects a Cauchy-based generator for the underlying RS code.
func WithCauchy() Option {
	return func(o *options) error {
		o.cauchy = true
		return nil
	}
}

// New constructs a (k, r) Piggybacked-RS code. Requirements match the
// underlying RS code (k >= 1, r >= 1, k+r <= 256), and r >= 2 because a
// code with a single parity has no parity to piggyback (r == 1 is
// rejected rather than silently degrading to RS).
func New(k, r int, opts ...Option) (*Code, error) {
	if r < 2 {
		return nil, fmt.Errorf("core: piggybacking requires r >= 2, got r=%d", r)
	}
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	var rsOpts []rs.Option
	if o.cauchy {
		rsOpts = append(rsOpts, rs.WithCauchy())
	}
	rsc, err := rs.New(k, r, rsOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	groups := o.groups
	if groups == nil {
		groups = DefaultGroups(k, r)
	}
	groupOf, err := validateGroups(k, r, groups)
	if err != nil {
		return nil, err
	}
	return &Code{
		k:       k,
		r:       r,
		rsc:     rsc,
		groups:  groups,
		groupOf: groupOf,
		name:    fmt.Sprintf("piggybacked-rs(%d,%d)", k, r),
	}, nil
}

// DefaultGroups returns the savings-maximising partition of the k data
// shards into at most r-1 piggyback groups.
//
// Repairing a data shard in a group of size s downloads (k+s)/2 shard
// equivalents, so smaller groups are better, but only r-1 parities can
// carry piggybacks. For r >= 3 the optimum is a full partition into r-1
// near-equal groups (for the paper's (10,4): sizes 4,3,3). For r == 2
// only one parity can be piggybacked and covering all k shards would
// cancel the benefit; a single group of ceil(k/2) shards maximises the
// average saving (for k=2 this is the paper's toy example, which
// piggybacks only a1).
func DefaultGroups(k, r int) [][]int {
	nGroups := r - 1
	if nGroups > k {
		nGroups = k
	}
	if r == 2 {
		half := (k + 1) / 2
		g := make([]int, half)
		for i := range g {
			g[i] = i
		}
		return [][]int{g}
	}
	groups := make([][]int, nGroups)
	base := k / nGroups
	extra := k % nGroups
	next := 0
	for g := 0; g < nGroups; g++ {
		size := base
		if g < extra {
			size++
		}
		for j := 0; j < size; j++ {
			groups[g] = append(groups[g], next)
			next++
		}
	}
	return groups
}

func validateGroups(k, r int, groups [][]int) ([]int, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: at least one piggyback group required")
	}
	if len(groups) > r-1 {
		return nil, fmt.Errorf("core: %d groups but only %d piggybackable parities", len(groups), r-1)
	}
	groupOf := make([]int, k)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for g, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("core: group %d is empty", g)
		}
		for _, m := range members {
			if m < 0 || m >= k {
				return nil, fmt.Errorf("core: group %d member %d out of data range [0, %d)", g, m, k)
			}
			if groupOf[m] != -1 {
				return nil, fmt.Errorf("core: data shard %d appears in groups %d and %d", m, groupOf[m], g)
			}
			groupOf[m] = g
		}
	}
	return groupOf, nil
}

// Name returns the codec name, e.g. "piggybacked-rs(10,4)".
func (c *Code) Name() string { return c.name }

// DataShards returns k.
func (c *Code) DataShards() int { return c.k }

// ParityShards returns r.
func (c *Code) ParityShards() int { return c.r }

// TotalShards returns k+r.
func (c *Code) TotalShards() int { return c.k + c.r }

// MinShardSize returns 2: every shard holds two substripe symbols.
func (c *Code) MinShardSize() int { return 2 }

// StorageOverhead returns (k+r)/k — identical to RS, the storage
// optimality the paper emphasises.
func (c *Code) StorageOverhead() float64 { return float64(c.k+c.r) / float64(c.k) }

// Groups returns a deep copy of the piggyback group assignment.
func (c *Code) Groups() [][]int {
	out := make([][]int, len(c.groups))
	for i, g := range c.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// GroupOf returns the piggyback group index of data shard i, or -1 if
// shard i carries no piggyback.
func (c *Code) GroupOf(i int) int {
	if i < 0 || i >= c.k {
		return -1
	}
	return c.groupOf[i]
}

// checkEven validates the shard size for substripe splitting.
func checkEven(size int) error {
	if size%2 != 0 {
		return fmt.Errorf("%w: piggybacked shards must have even size, got %d", ec.ErrShardSize, size)
	}
	return nil
}

// halves returns views of the a-half and b-half of a shard.
func halves(shard []byte) (a, b []byte) {
	h := len(shard) / 2
	return shard[:h:h], shard[h:]
}

// subViews builds the a-substripe and b-substripe views of a shard set.
// Missing shards stay nil in both views.
func subViews(shards [][]byte) (aView, bView [][]byte) {
	aView = make([][]byte, len(shards))
	bView = make([][]byte, len(shards))
	for i, s := range shards {
		if s == nil {
			continue
		}
		aView[i], bView[i] = halves(s)
	}
	return aView, bView
}

// piggybackInto XORs the piggyback of group g (the XOR of the a-symbols
// of its members) into dst, reading a-halves from aData, in one fused
// chunked pass over the group.
func (c *Code) piggybackInto(g int, aData [][]byte, dst []byte) {
	members := c.groups[g]
	inputs := make([][]byte, len(members))
	for i, m := range members {
		inputs[i] = aData[m]
	}
	gf256.XorAllSlices(inputs, dst)
}

// Encode computes the r parity shards from the k data shards. shards
// must have length k+r with all data shards present, equally sized, and
// of even size. Nil parity entries are allocated.
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
	if err := checkEven(size); err != nil {
		return err
	}
	for j := 0; j < c.r; j++ {
		p := c.k + j
		if shards[p] == nil {
			shards[p] = make([]byte, size)
		} else if len(shards[p]) != size {
			return fmt.Errorf("%w: parity shard %d has %d bytes, data has %d", ec.ErrShardSize, p, len(shards[p]), size)
		}
	}

	aView, bView := subViews(shards)
	// Substripe a: plain RS.
	if err := c.rsc.Encode(aView); err != nil {
		return err
	}
	// Substripe b: plain RS, then piggybacks onto parities 2..r.
	if err := c.rsc.Encode(bView); err != nil {
		return err
	}
	for g := range c.groups {
		c.piggybackInto(g, aView[:c.k], bView[c.k+1+g])
	}
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards, including the piggybacks. All shards must be present.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := ec.CheckShards(shards, c.TotalShards(), false)
	if err != nil {
		return false, err
	}
	if err := checkEven(size); err != nil {
		return false, err
	}
	aView, bView := subViews(shards)
	ok, err := c.rsc.Verify(aView)
	if err != nil || !ok {
		return ok, err
	}
	// Strip piggybacks into scratch copies of the b-parities, then
	// verify the b-substripe as plain RS.
	scratch := make([][]byte, c.TotalShards())
	copy(scratch, bView[:c.k+1])
	for g := range c.groups {
		p := c.k + 1 + g
		stripped := append([]byte(nil), bView[p]...)
		c.piggybackInto(g, aView[:c.k], stripped)
		scratch[p] = stripped
	}
	for j := c.k + 1 + len(c.groups); j < c.TotalShards(); j++ {
		scratch[j] = bView[j]
	}
	return c.rsc.Verify(scratch)
}

// Reconstruct fills in every nil shard in place, given at least k
// present shards: decode substripe a (clean RS), strip the now-known
// piggybacks from surviving b-parities, decode substripe b, re-add
// piggybacks to rebuilt b-parities.
func (c *Code) Reconstruct(shards [][]byte) error {
	size, err := ec.CheckShards(shards, c.TotalShards(), true)
	if err != nil {
		return err
	}
	if err := checkEven(size); err != nil {
		return err
	}
	if ec.CountPresent(shards) < c.k {
		return fmt.Errorf("%w: have %d, need %d", ec.ErrTooFewShards, ec.CountPresent(shards), c.k)
	}
	missing := ec.MissingIndices(shards)
	if len(missing) == 0 {
		return nil
	}

	aView, bView := subViews(shards)

	// Substripe a is clean RS: recover everything.
	if err := c.rsc.Reconstruct(aView); err != nil {
		return err
	}

	// Strip piggybacks from surviving piggybacked parities; missing
	// b-entries stay nil. Work on copies so the caller's shards are not
	// corrupted if a later step fails.
	bWork := make([][]byte, c.TotalShards())
	copy(bWork, bView)
	for g := range c.groups {
		p := c.k + 1 + g
		if bWork[p] == nil {
			continue
		}
		stripped := append([]byte(nil), bWork[p]...)
		c.piggybackInto(g, aView[:c.k], stripped)
		bWork[p] = stripped
	}
	if err := c.rsc.Reconstruct(bWork); err != nil {
		return err
	}

	// Assemble the missing shards.
	for _, m := range missing {
		shard := make([]byte, size)
		copy(shard[:size/2], aView[m])
		b := bWork[m]
		if m >= c.k+1 {
			if g := m - c.k - 1; g < len(c.groups) {
				// Re-add the piggyback to the rebuilt parity.
				b = append([]byte(nil), b...)
				c.piggybackInto(g, aView[:c.k], b)
			}
		}
		copy(shard[size/2:], b)
		shards[m] = shard
	}
	return nil
}

// cheapRepairPossible reports whether the piggyback repair path is
// available for data shard idx: every other data shard, parity 1, and
// the group's piggybacked parity must be alive.
func (c *Code) cheapRepairPossible(idx int, alive ec.AliveFunc) bool {
	if idx >= c.k {
		return false
	}
	g := c.groupOf[idx]
	if g < 0 {
		return false
	}
	for i := 0; i < c.k; i++ {
		if i != idx && !alive(i) {
			return false
		}
	}
	return alive(c.k) && alive(c.k+1+g)
}

// PlanRepair returns the reads needed to repair shard idx.
//
// For a data shard in a piggyback group of size s with all preferred
// helpers alive, the plan reads (k+s) half-shards: the b-halves of the
// other k-1 data shards and of parity 1, the b-half of the piggybacked
// parity, and the a-halves of the other s-1 group members — a download
// of (k+s)/2k of the RS baseline.
//
// Parity shards, ungrouped data shards, and degraded stripes fall back
// to reading both halves of any k surviving shards (the RS cost).
func (c *Code) PlanRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	if err := ec.CheckRepairTarget(c, idx, shardSize, alive); err != nil {
		return nil, err
	}
	half := shardSize / 2
	plan := &ec.RepairPlan{Shard: idx, ShardSize: shardSize}

	if c.cheapRepairPossible(idx, alive) {
		g := c.groupOf[idx]
		// b-halves of the other data shards.
		for i := 0; i < c.k; i++ {
			if i == idx {
				continue
			}
			plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: i, Offset: half, Length: half})
		}
		// b-half of the clean parity.
		plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: c.k, Offset: half, Length: half})
		// b-half of the piggybacked parity for this group.
		plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: c.k + 1 + g, Offset: half, Length: half})
		// a-halves of the other group members.
		for _, m := range c.groups[g] {
			if m == idx {
				continue
			}
			plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: m, Offset: 0, Length: half})
		}
		return plan, nil
	}

	// Fallback: both halves of the first k alive shards (RS cost).
	sources := make([]int, 0, c.k)
	for i := 0; i < c.TotalShards() && len(sources) < c.k; i++ {
		if i != idx && alive(i) {
			sources = append(sources, i)
		}
	}
	if len(sources) < c.k {
		return nil, fmt.Errorf("%w: %d alive, need %d", ec.ErrTooFewShards, len(sources), c.k)
	}
	for _, s := range sources {
		plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: s, Offset: 0, Length: shardSize})
	}
	return plan, nil
}

// linearAccum accumulates GF(2^8) coefficients per (helper range,
// target offset) pair, so algebraically-derived contributions that hit
// the same term XOR together and zero terms drop out.
type linearAccum struct {
	plan  *ec.LinearPlan
	coeff map[ec.LinearTerm]byte // Coeff field zeroed in the key
}

func newLinearAccum(idx int, shardSize int64) *linearAccum {
	return &linearAccum{
		plan:  &ec.LinearPlan{Shard: idx, ShardSize: shardSize},
		coeff: make(map[ec.LinearTerm]byte),
	}
}

func (a *linearAccum) add(read ec.ReadRequest, targetOff int64, coeff byte) {
	if coeff == 0 {
		return
	}
	key := ec.LinearTerm{Read: read, TargetOff: targetOff}
	a.coeff[key] ^= coeff
}

// finish emits the non-zero terms in deterministic order: by target
// offset, then source shard, then source offset.
func (a *linearAccum) finish() *ec.LinearPlan {
	keys := make([]ec.LinearTerm, 0, len(a.coeff))
	for k, c := range a.coeff {
		if c != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].TargetOff != keys[j].TargetOff {
			return keys[i].TargetOff < keys[j].TargetOff
		}
		if keys[i].Read.Shard != keys[j].Read.Shard {
			return keys[i].Read.Shard < keys[j].Read.Shard
		}
		return keys[i].Read.Offset < keys[j].Read.Offset
	})
	for _, k := range keys {
		k.Coeff = a.coeff[k]
		a.plan.Terms = append(a.plan.Terms, k)
	}
	return a.plan
}

// PlanLinearRepair expresses the repair of shard idx as a linear plan.
// The target has two output segments (the a-half and the b-half), each
// a GF(2^8) linear combination of fetched half-shard ranges:
//
//   - Cheap path (piggyback repair of a grouped data shard): the b-half
//     is the b-substripe decode of the other data shards' and parity
//     1's b-halves; the a-half is the piggybacked parity's b-half
//     (coefficient 1), minus that parity's RS value — whose b_idx input
//     is itself substituted by the decode combination — minus the other
//     group members' a-halves.
//
//   - Fallback (k whole survivors): both substripes decode with the
//     same survivor coefficient vector; surviving piggybacked parities
//     contribute their groups' a-symbols (piggyback stripping), and a
//     piggybacked-parity target re-adds its own group — every step a
//     linear substitution, folded into per-range coefficients.
//
// Exactly the ranges of PlanRepair are read, and ExecuteRepair is one
// evaluation of this plan.
func (c *Code) PlanLinearRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.LinearPlan, error) {
	if err := ec.CheckRepairTarget(c, idx, shardSize, alive); err != nil {
		return nil, err
	}
	half := shardSize / 2
	acc := newLinearAccum(idx, shardSize)

	if c.cheapRepairPossible(idx, alive) {
		g := c.groupOf[idx]
		p := c.k + 1 + g
		// b-substripe survivors: the other data shards plus parity 1.
		bSurv := make([]int, 0, c.k)
		for i := 0; i < c.k; i++ {
			if i != idx {
				bSurv = append(bSurv, i)
			}
		}
		bSurv = append(bSurv, c.k)
		decB, err := c.rsc.RecoveryCoefficients(idx, bSurv)
		if err != nil {
			return nil, err
		}
		pr := c.rsc.ParityRow(1 + g)
		for j, s := range bSurv {
			bRead := ec.ReadRequest{Shard: s, Offset: half, Length: half}
			// b-half of the target: the plain b-substripe decode.
			acc.add(bRead, half, decB[j])
			// a-half: subtracting the piggybacked parity's RS value,
			// with b_idx substituted by its decode combination.
			direct := byte(0)
			if s < c.k {
				direct = pr[s]
			}
			acc.add(bRead, 0, direct^gf256.Mul(pr[idx], decB[j]))
		}
		// a-half: the piggybacked parity's b-half exposes the piggyback…
		acc.add(ec.ReadRequest{Shard: p, Offset: half, Length: half}, 0, 1)
		// …and the other group members' a-symbols XOR out of it.
		for _, m := range c.groups[g] {
			if m != idx {
				acc.add(ec.ReadRequest{Shard: m, Offset: 0, Length: half}, 0, 1)
			}
		}
		return acc.finish(), nil
	}

	// Fallback: k whole survivors, mirroring Reconstruct algebraically.
	surv := make([]int, 0, c.k)
	for i := 0; i < c.TotalShards() && len(surv) < c.k; i++ {
		if i != idx && alive(i) {
			surv = append(surv, i)
		}
	}
	if len(surv) < c.k {
		return nil, fmt.Errorf("%w: %d alive, need %d", ec.ErrTooFewShards, len(surv), c.k)
	}
	// Both substripes share one survivor set, hence one target vector.
	ct, err := c.rsc.RecoveryCoefficients(idx, surv)
	if err != nil {
		return nil, err
	}
	aRead := func(s int) ec.ReadRequest { return ec.ReadRequest{Shard: s, Offset: 0, Length: half} }
	bRead := func(s int) ec.ReadRequest { return ec.ReadRequest{Shard: s, Offset: half, Length: half} }
	// addGroupASymbols folds scale * (XOR of group g's data a-symbols)
	// into the target segment at off, substituting each member's
	// a-symbol by its decode combination over the survivors' a-halves.
	addGroupASymbols := func(g int, off int64, scale byte) error {
		for _, m := range c.groups[g] {
			cam, err := c.rsc.RecoveryCoefficients(m, surv)
			if err != nil {
				return err
			}
			for j, s := range surv {
				acc.add(aRead(s), off, gf256.Mul(scale, cam[j]))
			}
		}
		return nil
	}
	for j, s := range surv {
		// a-half of the target: clean a-substripe decode.
		acc.add(aRead(s), 0, ct[j])
		// b-half: decode over the survivors' *clean* b-values — a
		// surviving piggybacked parity is its fetched b-half plus its
		// group's a-symbols (piggyback stripping).
		acc.add(bRead(s), half, ct[j])
		if g := s - c.k - 1; s > c.k && g < len(c.groups) {
			if err := addGroupASymbols(g, half, ct[j]); err != nil {
				return nil, err
			}
		}
	}
	// A piggybacked-parity target re-adds its own piggyback.
	if g := idx - c.k - 1; idx > c.k && g < len(c.groups) {
		if err := addGroupASymbols(g, half, 1); err != nil {
			return nil, err
		}
	}
	return acc.finish(), nil
}

// ExecuteRepair reconstructs shard idx with one evaluation of its
// linear plan: the plan's ranges are fetched once each (a group member's
// two halves as one read) and both target halves fold straight out of
// the fetched buffers. Only the target is computed — a parity repair no
// longer decodes every missing shard of both substripes to keep one.
func (c *Code) ExecuteRepair(idx int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) ([]byte, error) {
	return ec.ExecuteLinearRepair(c, idx, shardSize, alive, fetch)
}

// TheoreticalRepairFraction returns the download to repair shard idx
// (all other shards alive) as a fraction of the RS baseline of k shards:
// (k+s)/2k for a data shard in a group of size s, 1.0 otherwise.
func (c *Code) TheoreticalRepairFraction(idx int) float64 {
	if idx < 0 || idx >= c.TotalShards() {
		return 0
	}
	if idx < c.k {
		if g := c.groupOf[idx]; g >= 0 {
			s := len(c.groups[g])
			return float64(c.k+s) / (2 * float64(c.k))
		}
	}
	return 1.0
}

// AverageDataRepairFraction returns the mean of TheoreticalRepairFraction
// over the k data shards — the quantity behind the paper's "~30% savings
// for single block failures" (98% of which hit a single block, and data
// blocks are the common case).
func (c *Code) AverageDataRepairFraction() float64 {
	var sum float64
	for i := 0; i < c.k; i++ {
		sum += c.TheoreticalRepairFraction(i)
	}
	return sum / float64(c.k)
}

// AverageRepairFraction returns the mean of TheoreticalRepairFraction
// over all k+r shards, weighting data and parity failures uniformly.
func (c *Code) AverageRepairFraction() float64 {
	var sum float64
	for i := 0; i < c.TotalShards(); i++ {
		sum += c.TheoreticalRepairFraction(i)
	}
	return sum / float64(c.TotalShards())
}

// PlanMultiRepair returns the reads to repair every missing shard of a
// stripe. A single missing shard uses the cheap piggyback path; with
// two or more missing, the code falls back to one full decode — both
// halves of k surviving shards, the same joint cost RS pays — which is
// still far cheaper than repeated single repairs.
func (c *Code) PlanMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	if err := ec.CheckMissing(missing, c.TotalShards(), alive); err != nil {
		return nil, err
	}
	if len(missing) == 1 {
		return c.PlanRepair(missing[0], shardSize, alive)
	}
	if shardSize <= 0 || shardSize%2 != 0 {
		return nil, fmt.Errorf("%w: shard size %d (must be positive and even)", ec.ErrShardSize, shardSize)
	}
	skip := make(map[int]bool, len(missing))
	for _, m := range missing {
		skip[m] = true
	}
	sources := make([]int, 0, c.k)
	for i := 0; i < c.TotalShards() && len(sources) < c.k; i++ {
		if !skip[i] && alive(i) {
			sources = append(sources, i)
		}
	}
	if len(sources) < c.k {
		return nil, fmt.Errorf("%w: %d alive, need %d", ec.ErrTooFewShards, len(sources), c.k)
	}
	plan := &ec.RepairPlan{Shard: missing[0], ShardSize: shardSize}
	for _, s := range sources {
		plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: s, Offset: 0, Length: shardSize})
	}
	return plan, nil
}

// ExecuteMultiRepair reconstructs all missing shards, returning their
// contents keyed by shard index.
func (c *Code) ExecuteMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) (map[int][]byte, error) {
	if err := ec.CheckMissing(missing, c.TotalShards(), alive); err != nil {
		return nil, err
	}
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
	shards, err := ec.FetchShards(plan, c.TotalShards(), fetch)
	if err != nil {
		return nil, err
	}
	if err := c.Reconstruct(shards); err != nil {
		return nil, err
	}
	out := make(map[int][]byte, len(missing))
	for _, m := range missing {
		out[m] = shards[m]
	}
	return out, nil
}

// Verify interface compliance.
var (
	_ ec.Code                = (*Code)(nil)
	_ ec.LinearRepairPlanner = (*Code)(nil)
)
