// Package rs implements a systematic (k, r) Reed-Solomon erasure code
// over GF(2^8) for arbitrary parameters with k+r <= 256 — the baseline
// code of the paper, as deployed on the Facebook warehouse cluster with
// (k=10, r=4).
//
// The code is Maximum Distance Separable: the k data shards are
// recoverable from any k of the k+r shards, so any r shard losses are
// tolerated at the minimum possible storage overhead of (k+r)/k.
//
// The price, and the subject of the paper's measurement study, is
// recovery traffic: repairing a single lost shard requires downloading k
// whole shards — a k-fold read and network amplification relative to the
// size of the lost data. PlanRepair exposes exactly that access pattern.
package rs

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ec"
	"repro/internal/gf256"
	"repro/internal/matrix"
)

// Code is a systematic (k, r) Reed-Solomon codec. It is safe for
// concurrent use.
type Code struct {
	k int
	r int

	// gen is the (k+r) x k systematic generator matrix; its top k x k
	// block is the identity.
	gen *matrix.Matrix

	// parityRows caches rows k..k+r-1 of gen: parityRows[j][i] is the
	// coefficient of data shard i in parity shard j.
	parityRows [][]byte

	name string

	// decode matrices are cached per survivor set; repairs after a
	// machine failure hit the same survivor sets repeatedly.
	mu       sync.Mutex
	invCache map[string]*matrix.Matrix
}

// Option configures a Code at construction time.
type Option func(*options)

type options struct {
	cauchy bool
}

// WithCauchy selects a Cauchy-based generator matrix instead of the
// default Vandermonde-derived one. Both yield MDS codes; Cauchy
// construction is the common alternative in storage systems.
func WithCauchy() Option {
	return func(o *options) { o.cauchy = true }
}

// New constructs a systematic (k, r) Reed-Solomon code. k and r must be
// at least 1 and k+r at most 256.
func New(k, r int, opts ...Option) (*Code, error) {
	if k < 1 || r < 1 {
		return nil, fmt.Errorf("rs: k and r must be >= 1, got k=%d r=%d", k, r)
	}
	if k+r > gf256.Order {
		return nil, fmt.Errorf("rs: k+r = %d exceeds %d", k+r, gf256.Order)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var gen *matrix.Matrix
	var err error
	name := fmt.Sprintf("rs(%d,%d)", k, r)
	if o.cauchy {
		gen, err = matrix.SystematicCauchy(k+r, k)
		name = fmt.Sprintf("rs-cauchy(%d,%d)", k, r)
	} else {
		gen, err = matrix.SystematicVandermonde(k+r, k)
	}
	if err != nil {
		return nil, fmt.Errorf("rs: building generator: %w", err)
	}
	parityRows := make([][]byte, r)
	for j := 0; j < r; j++ {
		parityRows[j] = gen.Row(k + j)
	}
	return &Code{
		k:          k,
		r:          r,
		gen:        gen,
		parityRows: parityRows,
		name:       name,
		invCache:   make(map[string]*matrix.Matrix),
	}, nil
}

// Name returns the codec name, e.g. "rs(10,4)".
func (c *Code) Name() string { return c.name }

// DataShards returns k.
func (c *Code) DataShards() int { return c.k }

// ParityShards returns r.
func (c *Code) ParityShards() int { return c.r }

// TotalShards returns k+r.
func (c *Code) TotalShards() int { return c.k + c.r }

// MinShardSize returns 1: plain RS has no alignment requirement.
func (c *Code) MinShardSize() int { return 1 }

// StorageOverhead returns (k+r)/k.
func (c *Code) StorageOverhead() float64 { return float64(c.k+c.r) / float64(c.k) }

// Generator returns a copy of the (k+r) x k systematic generator matrix.
func (c *Code) Generator() *matrix.Matrix { return c.gen.Clone() }

// ParityRow returns a copy of the k coefficients generating parity j.
func (c *Code) ParityRow(j int) []byte {
	if j < 0 || j >= c.r {
		panic(fmt.Sprintf("rs: parity row %d out of range [0, %d)", j, c.r))
	}
	return append([]byte(nil), c.parityRows[j]...)
}

// Encode computes the r parity shards from the k data shards. shards
// must have length k+r; the first k entries must be present and equally
// sized. Nil parity entries are allocated; present ones are overwritten
// and must match the data shard size.
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
	for j := 0; j < c.r; j++ {
		p := c.k + j
		if shards[p] == nil {
			shards[p] = make([]byte, size)
		} else if len(shards[p]) != size {
			return fmt.Errorf("%w: parity shard %d has %d bytes, data has %d", ec.ErrShardSize, p, len(shards[p]), size)
		}
		if err := c.EncodeParityInto(shards[:c.k], j, shards[p]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeParityInto computes parity shard j (0-based within the parity
// range) of the given k data shards into dst, which must be data-sized.
func (c *Code) EncodeParityInto(data [][]byte, j int, dst []byte) error {
	if j < 0 || j >= c.r {
		return fmt.Errorf("%w: parity %d of %d", ec.ErrShardIndex, j, c.r)
	}
	if len(data) != c.k {
		return fmt.Errorf("%w: got %d data shards, want %d", ec.ErrShardCount, len(data), c.k)
	}
	for i, d := range data {
		if len(d) != len(dst) {
			return fmt.Errorf("%w: data shard %d has %d bytes, dst has %d", ec.ErrShardSize, i, len(d), len(dst))
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	gf256.MulAddSlices(c.parityRows[j], data, dst)
	return nil
}

// Verify reports whether the r parity shards match the k data shards.
// All k+r shards must be present.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := ec.CheckShards(shards, c.TotalShards(), false)
	if err != nil {
		return false, err
	}
	scratch := make([]byte, size)
	for j := 0; j < c.r; j++ {
		if err := c.EncodeParityInto(shards[:c.k], j, scratch); err != nil {
			return false, err
		}
		if !bytes.Equal(scratch, shards[c.k+j]) {
			return false, nil
		}
	}
	return true, nil
}

// Reconstruct fills in every nil shard (data and parity) in place, given
// at least k present shards.
func (c *Code) Reconstruct(shards [][]byte) error {
	size, err := ec.CheckShards(shards, c.TotalShards(), true)
	if err != nil {
		return err
	}
	present := 0
	for _, s := range shards {
		if s != nil {
			present++
		}
	}
	if present < c.k {
		return fmt.Errorf("%w: have %d, need %d", ec.ErrTooFewShards, present, c.k)
	}
	if present == c.TotalShards() {
		return nil
	}

	// Pick the first k surviving shards as decode inputs.
	survivors := make([]int, 0, c.k)
	for i := 0; i < c.TotalShards() && len(survivors) < c.k; i++ {
		if shards[i] != nil {
			survivors = append(survivors, i)
		}
	}

	dataMissing := false
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			dataMissing = true
			break
		}
	}

	if dataMissing {
		dec, err := c.decodeMatrix(survivors)
		if err != nil {
			return err
		}
		inputs := make([][]byte, c.k)
		for i, s := range survivors {
			inputs[i] = shards[s]
		}
		for i := 0; i < c.k; i++ {
			if shards[i] != nil {
				continue
			}
			out := make([]byte, size)
			gf256.MulAddSlices(dec.RowView(i), inputs, out)
			shards[i] = out
		}
	}

	for j := 0; j < c.r; j++ {
		p := c.k + j
		if shards[p] != nil {
			continue
		}
		out := make([]byte, size)
		if err := c.EncodeParityInto(shards[:c.k], j, out); err != nil {
			return err
		}
		shards[p] = out
	}
	return nil
}

// decodeMatrix returns the inverse of the generator rows selected by the
// k survivor indices: the matrix mapping survivor shard values back to
// the k data shards. Results are cached per survivor set.
func (c *Code) decodeMatrix(survivors []int) (*matrix.Matrix, error) {
	if len(survivors) != c.k {
		return nil, fmt.Errorf("%w: need exactly %d survivors, got %d", ec.ErrTooFewShards, c.k, len(survivors))
	}
	key := make([]byte, len(survivors))
	for i, s := range survivors {
		key[i] = byte(s)
	}
	ck := string(key)

	c.mu.Lock()
	cached, ok := c.invCache[ck]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}

	sub, err := c.gen.SelectRows(survivors)
	if err != nil {
		return nil, err
	}
	inv, err := sub.Invert()
	if err != nil {
		// Cannot happen for a correctly constructed MDS generator;
		// surfaced for defence in depth.
		return nil, fmt.Errorf("rs: survivor set %v not decodable: %w", survivors, err)
	}

	c.mu.Lock()
	c.invCache[ck] = inv
	c.mu.Unlock()
	return inv, nil
}

// RecoveryCoefficients returns the GF(2^8) vector c such that, for any
// codeword of this code, shard target equals sum_i c[i]*shard(survivors[i]).
// survivors must be exactly k distinct shard indices. A target that is
// itself a survivor yields the unit vector; any other target (data or
// parity) is expressed through the survivor set's decode matrix — for a
// parity target the generator row is composed with the decode, so the
// result is still a single linear combination of the k survivors. This
// is the algebraic core of partial-sum repair: helpers can apply c
// locally and XOR-fold, because the whole repair is one dot product.
func (c *Code) RecoveryCoefficients(target int, survivors []int) ([]byte, error) {
	if target < 0 || target >= c.TotalShards() {
		return nil, fmt.Errorf("%w: target %d of %d", ec.ErrShardIndex, target, c.TotalShards())
	}
	for i, s := range survivors {
		if s == target {
			out := make([]byte, len(survivors))
			out[i] = 1
			return out, nil
		}
	}
	dec, err := c.decodeMatrix(survivors)
	if err != nil {
		return nil, err
	}
	if target < c.k {
		return append([]byte(nil), dec.RowView(target)...), nil
	}
	// Parity target: compose its generator row with the decode matrix.
	genRow := c.gen.RowView(target)
	out := make([]byte, c.k)
	for s := 0; s < c.k; s++ {
		var acc byte
		for i := 0; i < c.k; i++ {
			acc ^= gf256.Mul(genRow[i], dec.RowView(i)[s])
		}
		out[s] = acc
	}
	return out, nil
}

// PlanLinearRepair expresses the repair of shard idx as one linear
// combination of the first k alive shards, each whole shard annotated
// with its decode coefficient.
func (c *Code) PlanLinearRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.LinearPlan, error) {
	if err := ec.CheckRepairTarget(c, idx, shardSize, alive); err != nil {
		return nil, err
	}
	sources := c.pickAlive([]int{idx}, alive)
	if len(sources) < c.k {
		return nil, fmt.Errorf("%w: %d alive, need %d", ec.ErrTooFewShards, len(sources), c.k)
	}
	coeffs, err := c.RecoveryCoefficients(idx, sources)
	if err != nil {
		return nil, err
	}
	plan := &ec.LinearPlan{Shard: idx, ShardSize: shardSize}
	for i, s := range sources {
		if coeffs[i] == 0 {
			continue // contributes nothing, so it is not read
		}
		plan.Terms = append(plan.Terms, ec.LinearTerm{
			Read:  ec.ReadRequest{Shard: s, Offset: 0, Length: shardSize},
			Coeff: coeffs[i],
		})
	}
	return plan, nil
}

// PlanRepair returns the reads needed to repair shard idx: k whole
// surviving shards (the paper's k-fold recovery amplification) — the
// reads of the linear plan. idx must be reported dead by alive.
func (c *Code) PlanRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	plan, err := c.PlanLinearRepair(idx, shardSize, alive)
	if err != nil {
		return nil, err
	}
	return plan.RepairPlan(), nil
}

// pickAlive returns the first k alive shard indices outside skip.
func (c *Code) pickAlive(skip []int, alive ec.AliveFunc) []int {
	out := make([]int, 0, c.k)
	for i := 0; i < c.TotalShards() && len(out) < c.k; i++ {
		if !slices.Contains(skip, i) && alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// ExecuteRepair reconstructs shard idx with one evaluation of its
// linear plan: k whole-shard fetches folded in a single fused pass.
func (c *Code) ExecuteRepair(idx int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) ([]byte, error) {
	return ec.ExecuteLinearRepair(c, idx, shardSize, alive, fetch)
}

// PlanMultiRepair returns the reads to repair every missing shard of a
// stripe in one decode: k whole surviving shards, shared by all
// reconstructions — the joint cost the paper's 1.87% double-failure
// stripes pay, versus 2k for two separate repairs.
func (c *Code) PlanMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc) (*ec.RepairPlan, error) {
	if err := ec.CheckMissing(missing, c.TotalShards(), alive); err != nil {
		return nil, err
	}
	if shardSize <= 0 {
		return nil, fmt.Errorf("%w: shard size %d", ec.ErrShardSize, shardSize)
	}
	sources := c.pickAlive(missing, alive)
	if len(sources) < c.k {
		return nil, fmt.Errorf("%w: %d alive, need %d", ec.ErrTooFewShards, len(sources), c.k)
	}
	plan := &ec.RepairPlan{Shard: missing[0], ShardSize: shardSize}
	for _, s := range sources {
		plan.Reads = append(plan.Reads, ec.ReadRequest{Shard: s, Offset: 0, Length: shardSize})
	}
	return plan, nil
}

// ExecuteMultiRepair reconstructs all missing shards, returning
// contents keyed by shard index: a single one through ExecuteRepair's
// linear plan (the same reads, only the target computed), several from
// one joint decode.
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

var (
	_ ec.Code                = (*Code)(nil)
	_ ec.LinearRepairPlanner = (*Code)(nil)
)
