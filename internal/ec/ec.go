// Package ec defines the contract shared by every erasure codec in this
// repository: the Code interface, shard-set validation helpers, and the
// repair-plan machinery that lets both the byte-accurate codecs and the
// cluster-scale simulator account for recovery traffic with one
// mechanism.
//
// A "shard set" is a slice of k+r byte slices. Indices [0, k) are data
// shards, [k, k+r) are parity shards. A nil entry marks a missing shard;
// all present shards must share one non-zero length (the "shard size").
//
// Repair is modelled in two steps. PlanRepair answers, without touching
// data, exactly which byte ranges of which surviving shards a repair of
// one shard would read — the quantity the paper measures as cross-rack
// traffic. ExecuteRepair performs the same reads through a caller-supplied
// fetch function and returns the reconstructed shard, so distributed
// stores and unit tests exercise the identical access pattern the plans
// charge for. Every codec's single-shard ExecuteRepair is one
// evaluation of its LinearPlan (EvaluateLinearPlan, linear.go); two or
// more missing shards share one joint Reconstruct decode.
package ec

import (
	"errors"
	"fmt"
)

// Common validation errors.
var (
	// ErrShardCount is returned when a shard slice has the wrong length.
	ErrShardCount = errors.New("ec: wrong number of shards")
	// ErrShardSize is returned when present shards disagree on size, are
	// empty, or violate a codec's alignment requirement.
	ErrShardSize = errors.New("ec: invalid shard size")
	// ErrTooFewShards is returned when fewer than k shards survive.
	ErrTooFewShards = errors.New("ec: too few shards to reconstruct")
	// ErrShardIndex is returned for an out-of-range shard index.
	ErrShardIndex = errors.New("ec: shard index out of range")
	// ErrShardPresent is returned when asked to repair a shard that is
	// still present.
	ErrShardPresent = errors.New("ec: shard to repair is present")
)

// ReadRequest identifies one contiguous byte range of one surviving shard
// that a repair must read and (in a distributed setting) download.
type ReadRequest struct {
	// Shard is the index of the surviving shard to read, in [0, k+r).
	Shard int
	// Offset is the starting byte offset within the shard.
	Offset int64
	// Length is the number of bytes to read.
	Length int64
}

// RepairPlan lists every read a single-shard repair performs.
type RepairPlan struct {
	// Shard is the index being repaired.
	Shard int
	// ShardSize is the size, in bytes, of each shard in the stripe.
	ShardSize int64
	// Reads are the byte ranges fetched from surviving shards.
	Reads []ReadRequest
}

// TotalBytes returns the number of bytes the plan downloads.
func (p *RepairPlan) TotalBytes() int64 {
	var n int64
	for _, r := range p.Reads {
		n += r.Length
	}
	return n
}

// Sources returns the number of distinct shards the plan contacts.
func (p *RepairPlan) Sources() int {
	seen := make(map[int]bool, len(p.Reads))
	for _, r := range p.Reads {
		seen[r.Shard] = true
	}
	return len(seen)
}

// MaxPerSource returns the largest number of bytes read from any single
// shard. Together with TotalBytes this drives the recovery-time model of
// §3.2: per-helper disk time scales with MaxPerSource, destination
// network time with TotalBytes.
func (p *RepairPlan) MaxPerSource() int64 {
	per := make(map[int]int64, len(p.Reads))
	for _, r := range p.Reads {
		per[r.Shard] += r.Length
	}
	var max int64
	for _, n := range per {
		if n > max {
			max = n
		}
	}
	return max
}

// FetchFunc retrieves the bytes described by one ReadRequest from a
// surviving shard. Implementations are free to serve from memory, disk,
// or a network peer; errors abort the repair.
type FetchFunc func(ReadRequest) ([]byte, error)

// AliveFunc reports whether the shard at the given index is available to
// serve reads.
type AliveFunc func(shard int) bool

// AllAliveExcept returns an AliveFunc where every shard is available
// except the listed ones.
func AllAliveExcept(down ...int) AliveFunc {
	dead := make(map[int]bool, len(down))
	for _, d := range down {
		dead[d] = true
	}
	return func(shard int) bool { return !dead[shard] }
}

// Code is the interface every erasure codec implements.
type Code interface {
	// Name identifies the codec (e.g. "rs(10,4)", "piggybacked-rs(10,4)").
	Name() string
	// DataShards returns k.
	DataShards() int
	// ParityShards returns r.
	ParityShards() int
	// TotalShards returns k+r.
	TotalShards() int
	// MinShardSize returns the smallest shard size the codec supports;
	// shard sizes must be multiples of it (1 for plain RS, 2 for
	// piggybacked codes which split shards into two substripes).
	MinShardSize() int
	// StorageOverhead returns (k+r)/k, e.g. 1.4 for (10,4).
	StorageOverhead() float64

	// Encode computes the r parity shards from the k data shards.
	// shards must have length k+r with all data shards present and of
	// equal size; parity shards are allocated if nil.
	Encode(shards [][]byte) error
	// Verify reports whether the parity shards are consistent with the
	// data shards.
	Verify(shards [][]byte) (bool, error)
	// Reconstruct fills in every nil shard, both data and parity, given
	// at least k surviving shards.
	Reconstruct(shards [][]byte) error

	// PlanRepair returns the reads required to repair the single shard
	// idx when the shards reported alive by alive are available. The
	// planned reads only touch alive shards.
	PlanRepair(idx int, shardSize int64, alive AliveFunc) (*RepairPlan, error)
	// ExecuteRepair reconstructs shard idx by fetching the ranges of its
	// repair plan through fetch; touching ranges of one helper shard may
	// arrive as a single request. Fetched buffers are only read, and the
	// returned shard is freshly allocated — it aliases none of them — so
	// fetch may hand out pooled or store-owned memory and reuse it once
	// the call returns. A fetch of the wrong length is ErrShardSize.
	ExecuteRepair(idx int, shardSize int64, alive AliveFunc, fetch FetchFunc) ([]byte, error)

	// PlanMultiRepair returns the reads required to repair all the
	// missing shards of one stripe in a single pass — how HDFS-RAID's
	// fixer actually recovers a stripe with several blocks gone (§2.2:
	// 1.87% of affected stripes have two missing, 0.05% three or more).
	// A joint repair is far cheaper than repeated single repairs: one
	// decode's downloads are shared by every missing shard.
	PlanMultiRepair(missing []int, shardSize int64, alive AliveFunc) (*RepairPlan, error)
	// ExecuteMultiRepair reconstructs all missing shards by fetching
	// the ranges of the multi-repair plan, returning shard content
	// keyed by shard index. The fetch and ownership rules are those of
	// ExecuteRepair.
	ExecuteMultiRepair(missing []int, shardSize int64, alive AliveFunc, fetch FetchFunc) (map[int][]byte, error)
}

// CheckShards validates a shard slice against k+r and returns the common
// shard size. With allowMissing, nil entries are permitted (their count
// is not checked here); zero-length present shards are always rejected.
func CheckShards(shards [][]byte, total int, allowMissing bool) (int, error) {
	if len(shards) != total {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), total)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if !allowMissing {
				return 0, fmt.Errorf("%w: shard %d is nil", ErrShardSize, i)
			}
			continue
		}
		if len(s) == 0 {
			return 0, fmt.Errorf("%w: shard %d is empty", ErrShardSize, i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, others have %d", ErrShardSize, i, len(s), size)
		}
	}
	if size == -1 {
		return 0, fmt.Errorf("%w: all shards missing", ErrTooFewShards)
	}
	return size, nil
}

// ValidatePlan checks the structural invariants every repair plan must
// satisfy: the repaired shard in range, every read within the shard
// bounds with positive length, sources alive, the repaired shard never
// read, and no duplicate ranges. Codec property tests run all plans
// through it.
func ValidatePlan(plan *RepairPlan, total int, alive AliveFunc) error {
	if plan == nil {
		return errors.New("ec: nil plan")
	}
	if plan.Shard < 0 || plan.Shard >= total {
		return fmt.Errorf("%w: plan target %d of %d", ErrShardIndex, plan.Shard, total)
	}
	if plan.ShardSize <= 0 {
		return fmt.Errorf("%w: plan shard size %d", ErrShardSize, plan.ShardSize)
	}
	type span struct {
		shard    int
		off, len int64
	}
	seen := make(map[span]bool, len(plan.Reads))
	for _, r := range plan.Reads {
		if r.Shard < 0 || r.Shard >= total {
			return fmt.Errorf("%w: read of shard %d", ErrShardIndex, r.Shard)
		}
		if r.Shard == plan.Shard {
			return fmt.Errorf("%w: plan reads its own target %d", ErrShardIndex, r.Shard)
		}
		if !alive(r.Shard) {
			return fmt.Errorf("ec: plan reads dead shard %d", r.Shard)
		}
		if r.Length <= 0 || r.Offset < 0 || r.Offset+r.Length > plan.ShardSize {
			return fmt.Errorf("%w: read [%d, %d) of %d-byte shard", ErrShardSize, r.Offset, r.Offset+r.Length, plan.ShardSize)
		}
		s := span{r.Shard, r.Offset, r.Length}
		if seen[s] {
			return fmt.Errorf("ec: duplicate read %+v", s)
		}
		seen[s] = true
	}
	return nil
}

// CheckRepairTarget validates a single-shard repair request against
// code: idx in range and not alive, shardSize a positive multiple of
// the codec's MinShardSize.
func CheckRepairTarget(code Code, idx int, shardSize int64, alive AliveFunc) error {
	if total := code.TotalShards(); idx < 0 || idx >= total {
		return fmt.Errorf("%w: %d of %d", ErrShardIndex, idx, total)
	}
	if unit := int64(code.MinShardSize()); shardSize <= 0 || shardSize%unit != 0 {
		return fmt.Errorf("%w: shard size %d (must be a positive multiple of %d)", ErrShardSize, shardSize, unit)
	}
	if alive(idx) {
		return fmt.Errorf("%w: shard %d", ErrShardPresent, idx)
	}
	return nil
}

// CheckMissing validates a multi-repair target list: non-empty, within
// range, free of duplicates, and entirely dead according to alive.
func CheckMissing(missing []int, total int, alive AliveFunc) error {
	if len(missing) == 0 {
		return fmt.Errorf("%w: no shards to repair", ErrShardIndex)
	}
	seen := make(map[int]bool, len(missing))
	for _, idx := range missing {
		if idx < 0 || idx >= total {
			return fmt.Errorf("%w: %d of %d", ErrShardIndex, idx, total)
		}
		if seen[idx] {
			return fmt.Errorf("%w: shard %d listed twice", ErrShardIndex, idx)
		}
		seen[idx] = true
		if alive(idx) {
			return fmt.Errorf("%w: shard %d", ErrShardPresent, idx)
		}
	}
	return nil
}

// FetchShards performs the reads of a plan made of whole-shard reads —
// every joint (multi-shard) repair plan — and returns the buffers
// indexed by shard, nil where the plan reads nothing. A fetch of the
// wrong length is ErrShardSize.
func FetchShards(plan *RepairPlan, total int, fetch FetchFunc) ([][]byte, error) {
	shards := make([][]byte, total)
	for _, req := range plan.Reads {
		buf, err := fetch(req)
		if err != nil {
			return nil, fmt.Errorf("ec: fetching shard %d: %w", req.Shard, err)
		}
		if req.Shard < 0 || req.Shard >= total || req.Offset != 0 || int64(len(buf)) != plan.ShardSize {
			return nil, fmt.Errorf("%w: fetch [%d, +%d) of shard %d returned %d bytes, want a whole %d-byte shard",
				ErrShardSize, req.Offset, req.Length, req.Shard, len(buf), plan.ShardSize)
		}
		shards[req.Shard] = buf
	}
	return shards, nil
}

// CountPresent returns how many entries of shards are non-nil.
func CountPresent(shards [][]byte) int {
	n := 0
	for _, s := range shards {
		if s != nil {
			n++
		}
	}
	return n
}

// MissingIndices returns the indices of nil entries, in order.
func MissingIndices(shards [][]byte) []int {
	var out []int
	for i, s := range shards {
		if s == nil {
			out = append(out, i)
		}
	}
	return out
}

// RepairFraction returns a codec's single-shard repair download expressed
// as a fraction of the RS baseline (k shards). It averages TotalBytes of
// the repair plan for each shard index, all other shards alive, weighted
// uniformly — the quantity behind the paper's "~30% savings" claim.
func RepairFraction(c Code, shardSize int64) (perShard []float64, average float64, err error) {
	k := c.DataShards()
	base := float64(k) * float64(shardSize)
	total := c.TotalShards()
	perShard = make([]float64, total)
	var sum float64
	for idx := 0; idx < total; idx++ {
		plan, err := c.PlanRepair(idx, shardSize, AllAliveExcept(idx))
		if err != nil {
			return nil, 0, err
		}
		perShard[idx] = float64(plan.TotalBytes()) / base
		sum += perShard[idx]
	}
	return perShard, sum / float64(total), nil
}
