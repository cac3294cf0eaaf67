// The codec layer: the three erasure codes of the paper (RS,
// Piggybacked-RS, LRC), the Codec contract they satisfy, repair
// planning types, and the shard split/join helpers callers use to feed
// them.

package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// Codec is the contract every erasure code implements: encode, verify,
// reconstruct, and plan/execute single-shard repairs.
type Codec = ec.Code

// ReadRequest identifies one byte range of one surviving shard that a
// repair reads.
type ReadRequest = ec.ReadRequest

// RepairPlan lists every read a single-shard repair performs; its
// TotalBytes is the cross-rack traffic the paper measures.
type RepairPlan = ec.RepairPlan

// FetchFunc retrieves one planned byte range from a surviving shard.
type FetchFunc = ec.FetchFunc

// AliveFunc reports shard availability to the repair planner.
type AliveFunc = ec.AliveFunc

// LinearTerm is one multiply-accumulate input of a linear repair plan:
// a helper range, its GF(2^8) coefficient, and where in the target the
// product folds in.
type LinearTerm = ec.LinearTerm

// LinearPlan expresses a single-shard repair as a pure linear
// combination of helper ranges — the algebraic form that lets repair
// arithmetic migrate into the helpers (partial-sum repair).
type LinearPlan = ec.LinearPlan

// LinearRepairPlanner is implemented by codecs whose repairs are
// expressible as linear plans. All three codecs here implement it.
type LinearRepairPlanner = ec.LinearRepairPlanner

// RS is the systematic Reed-Solomon codec (the deployed baseline).
type RS = rs.Code

// PiggybackedRS is the paper's proposed code.
type PiggybackedRS = core.Code

// LRC is the locally repairable baseline from the related work.
type LRC = lrc.Code

// Sentinel errors shared by all codecs.
var (
	ErrShardCount   = ec.ErrShardCount
	ErrShardSize    = ec.ErrShardSize
	ErrTooFewShards = ec.ErrTooFewShards
	ErrShardIndex   = ec.ErrShardIndex
	ErrShardPresent = ec.ErrShardPresent
)

// NewRS returns a systematic (k, r) Reed-Solomon codec. The Facebook
// warehouse cluster runs NewRS(10, 4).
func NewRS(k, r int) (*RS, error) { return rs.New(k, r) }

// NewPiggybackedRS returns a (k, r) Piggybacked-RS codec with the
// savings-maximising default grouping (sizes {4,3,3} for (10,4)).
func NewPiggybackedRS(k, r int) (*PiggybackedRS, error) { return core.New(k, r) }

// NewPiggybackedRSWithGroups returns a (k, r) Piggybacked-RS codec with
// an explicit piggyback group assignment (at most r-1 disjoint groups of
// data shard indices).
func NewPiggybackedRSWithGroups(k, r int, groups [][]int) (*PiggybackedRS, error) {
	return core.New(k, r, core.WithGroups(groups))
}

// NewLRC returns a (k, r, locals) locally repairable codec: r global RS
// parities plus one XOR parity per local group. The HDFS-Xorbas
// configuration is NewLRC(10, 4, 2).
func NewLRC(k, r, locals int) (*LRC, error) { return lrc.New(k, r, locals) }

// AllAliveExcept returns an AliveFunc with the listed shards down.
func AllAliveExcept(down ...int) AliveFunc { return ec.AllAliveExcept(down...) }

// RepairFraction reports each shard's single-failure repair download as
// a fraction of the RS baseline (k shards), plus the uniform average —
// the quantity behind the paper's "~30% savings" claim.
func RepairFraction(c Codec, shardSize int64) (perShard []float64, average float64, err error) {
	return ec.RepairFraction(c, shardSize)
}

// SplitShards splits data into k equal shards padded to a multiple of
// align (use the codec's MinShardSize), returning the shards extended
// with r nil parity slots, ready for Codec.Encode. PaddedLen records the
// per-shard size; JoinShards inverts the operation.
func SplitShards(data []byte, k, r, align int) ([][]byte, error) {
	if k < 1 || r < 0 {
		return nil, fmt.Errorf("repro: invalid shard counts k=%d r=%d", k, r)
	}
	if align < 1 {
		return nil, fmt.Errorf("repro: invalid alignment %d", align)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("repro: empty input")
	}
	per := (len(data) + k - 1) / k
	if rem := per % align; rem != 0 {
		per += align - rem
	}
	shards := make([][]byte, k+r)
	for i := 0; i < k; i++ {
		shards[i] = make([]byte, per)
		lo := i * per
		if lo < len(data) {
			hi := lo + per
			if hi > len(data) {
				hi = len(data)
			}
			copy(shards[i], data[lo:hi])
		}
	}
	return shards, nil
}

// JoinShards reassembles the original data of the given length from the
// k data shards produced by SplitShards.
func JoinShards(shards [][]byte, k, length int) ([]byte, error) {
	if k < 1 || k > len(shards) {
		return nil, fmt.Errorf("repro: invalid k=%d for %d shards", k, len(shards))
	}
	out := make([]byte, 0, length)
	for i := 0; i < k && len(out) < length; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("repro: data shard %d missing", i)
		}
		need := length - len(out)
		if need > len(shards[i]) {
			need = len(shards[i])
		}
		out = append(out, shards[i][:need]...)
	}
	if len(out) != length {
		return nil, fmt.Errorf("repro: shards hold %d bytes, need %d", len(out), length)
	}
	return out, nil
}
