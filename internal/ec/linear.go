// Linear repair plans: the algebraic form behind partial-sum repair.
//
// Every codec in this repository is linear over GF(2^8), so any
// single-shard repair is expressible as a pure multiply-accumulate over
// the helper ranges it reads:
//
//	target[t.TargetOff : t.TargetOff+t.Read.Length] ^= t.Coeff ⊗ fetch(t.Read)
//
// for every term t of the plan. A RepairPlan says *which bytes move*; a
// LinearPlan additionally says *what each helper multiplies its bytes
// by*, which is exactly what lets the arithmetic migrate from the
// reconstructing node into the helpers: each helper computes its local
// terms, XOR-folds partial sums arriving from upstream helpers, and
// forwards one target-sized buffer — so the reconstructing node
// receives one block instead of k.
//
// The same helper range may appear in several terms (a Piggybacked-RS
// b-half feeds both the a-segment and the b-segment of the target); it
// is read once and multiplied once per term.
//
// The same form is also the fastest way to repair on ONE node, which is
// why EvaluateLinearPlan is the production executor behind every
// codec's single-shard ExecuteRepair and not a test reference: a plan
// computes only the target (a generic decode rebuilds every missing
// shard to keep one), and its terms fold straight out of the fetched
// buffers with the fused kernel.
package ec

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/gf256"
)

// LinearTerm is one multiply-accumulate input of a linear repair: the
// helper range to read, the GF(2^8) coefficient to scale it by, and the
// offset within the target shard where the product folds in.
type LinearTerm struct {
	Read      ReadRequest
	Coeff     byte
	TargetOff int64
}

// LinearPlan expresses one single-shard repair as a sum of linear
// terms. Evaluating every term into a zeroed ShardSize buffer yields
// the repaired shard — EvaluateLinearPlan does exactly that, and is
// what every codec's ExecuteRepair runs.
type LinearPlan struct {
	// Shard is the index being repaired.
	Shard int
	// ShardSize is the target's size in bytes.
	ShardSize int64
	// Terms are the multiply-accumulate inputs. Zero-coefficient terms
	// are omitted by the planners.
	Terms []LinearTerm
}

// LinearRepairPlanner is implemented by codecs whose single-shard
// repair is expressible as a LinearPlan for every failure pattern their
// PlanRepair supports. The partial-sum repair pipeline requires it.
type LinearRepairPlanner interface {
	PlanLinearRepair(idx int, shardSize int64, alive AliveFunc) (*LinearPlan, error)
}

// Reads returns the distinct helper ranges the plan touches, in first-
// appearance order — what actually moves off helper disks (terms
// sharing a range read it once).
func (p *LinearPlan) Reads() []ReadRequest {
	seen := make(map[ReadRequest]bool, len(p.Terms))
	out := make([]ReadRequest, 0, len(p.Terms))
	for _, t := range p.Terms {
		if !seen[t.Read] {
			seen[t.Read] = true
			out = append(out, t.Read)
		}
	}
	return out
}

// RepairPlan returns the plan's distinct reads as the conventional
// RepairPlan — for codecs whose every helper contributes one range, the
// traffic plan and the linear plan are the same reads.
func (p *LinearPlan) RepairPlan() *RepairPlan {
	return &RepairPlan{Shard: p.Shard, ShardSize: p.ShardSize, Reads: p.Reads()}
}

// TotalBytes returns the bytes the plan's distinct reads move off
// helper disks.
func (p *LinearPlan) TotalBytes() int64 {
	var n int64
	for _, r := range p.Reads() {
		n += r.Length
	}
	return n
}

// CheckBounds reports ErrShardSize unless the term's read and its fold
// destination both lie within a shardSize-byte shard. Offset+Length can
// wrap int64 on hostile input, so it compares against shardSize-Length.
// Every executor of a plan runs this check, and no other, before any I/O.
func (t LinearTerm) CheckBounds(shardSize int64) error {
	r := t.Read
	if r.Length <= 0 || r.Length > shardSize || r.Offset < 0 || r.Offset > shardSize-r.Length ||
		t.TargetOff < 0 || t.TargetOff > shardSize-r.Length {
		return fmt.Errorf("%w: term folds [%d, +%d) of shard %d into offset %d of a %d-byte target",
			ErrShardSize, r.Offset, r.Length, r.Shard, t.TargetOff, shardSize)
	}
	return nil
}

// EvaluateLinearPlan is the repair executor every codec's single-shard
// ExecuteRepair runs: one evaluation of the plan, in three steps.
//
//  1. The terms' reads are coalesced: ranges of one helper shard that
//     touch or overlap become a single fetch (a Piggybacked-RS group
//     member's a-half and b-half are one whole-shard read), so every
//     helper byte is fetched exactly once.
//  2. Each fetch must return exactly the requested length — anything
//     else is ErrShardSize, never a panic in the kernel.
//  3. Terms are grouped by target segment and each segment is folded
//     with one fused gf256.MulAddSlices pass over views of the fetched
//     buffers; nothing is copied between fetch and fold.
//
// The result is freshly allocated and aliases no fetched buffer, so a
// fetch may hand out pooled or store-owned memory and recycle it as
// soon as the call returns. Fetched buffers are only read. Besides the
// output shard the call allocates a constant number of small slices,
// none per term.
func EvaluateLinearPlan(plan *LinearPlan, fetch FetchFunc) ([]byte, error) {
	if plan.ShardSize <= 0 {
		return nil, fmt.Errorf("%w: plan shard size %d", ErrShardSize, plan.ShardSize)
	}
	n := len(plan.Terms)
	terms := make([]LinearTerm, n)
	copy(terms, plan.Terms)
	fetches := make([]ReadRequest, n)
	for i, t := range terms {
		if err := t.CheckBounds(plan.ShardSize); err != nil {
			return nil, err
		}
		fetches[i] = t.Read
	}
	fetches = coalesceReads(fetches)

	// One backing array for the fetched buffers and the fold's inputs.
	views := make([][]byte, len(fetches)+n)
	bufs, inputs := views[:len(fetches)], views[len(fetches):]
	for i, req := range fetches {
		buf, err := fetch(req)
		if err != nil {
			return nil, fmt.Errorf("ec: fetching shard %d: %w", req.Shard, err)
		}
		if int64(len(buf)) != req.Length {
			return nil, fmt.Errorf("%w: fetch of shard %d returned %d bytes, want %d",
				ErrShardSize, req.Shard, len(buf), req.Length)
		}
		bufs[i] = buf
	}

	// Terms sharing a target segment become adjacent.
	slices.SortFunc(terms, func(a, b LinearTerm) int {
		if c := cmp.Compare(a.TargetOff, b.TargetOff); c != 0 {
			return c
		}
		return cmp.Compare(a.Read.Length, b.Read.Length)
	})
	out := make([]byte, plan.ShardSize)
	foldTerms(terms, fetches, bufs, make([]byte, n), inputs, out)
	return out, nil
}

// coalesceReads sorts reads by (shard, offset) and merges, in place,
// ranges of one shard that touch or overlap.
func coalesceReads(reads []ReadRequest) []ReadRequest {
	slices.SortFunc(reads, func(a, b ReadRequest) int {
		if c := cmp.Compare(a.Shard, b.Shard); c != 0 {
			return c
		}
		return cmp.Compare(a.Offset, b.Offset)
	})
	merged := reads[:0]
	for _, r := range reads {
		if last := len(merged) - 1; last >= 0 && merged[last].Shard == r.Shard && r.Offset <= merged[last].Offset+merged[last].Length {
			if end := r.Offset + r.Length; end > merged[last].Offset+merged[last].Length {
				merged[last].Length = end - merged[last].Offset
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// foldTerms is the executor's multiply-accumulate loop: for each run of
// terms sharing a target segment it gathers the coefficient vector and
// the input views (each a sub-slice of the coalesced fetch covering the
// term's read) and folds the run into out with one fused kernel pass.
// terms are sorted by target segment, fetches by (shard, offset);
// coeffs and inputs are caller-provided scratch of len(terms). It must
// stay allocation-free (repolint noalloc).
func foldTerms(terms []LinearTerm, fetches []ReadRequest, bufs [][]byte, coeffs []byte, inputs [][]byte, out []byte) {
	for lo := 0; lo < len(terms); {
		off, length := terms[lo].TargetOff, terms[lo].Read.Length
		hi := lo
		for ; hi < len(terms) && terms[hi].TargetOff == off && terms[hi].Read.Length == length; hi++ {
			r := terms[hi].Read
			// The last fetch starting at or before the read covers it.
			a, b := 0, len(fetches)
			for a < b {
				mid := int(uint(a+b) >> 1)
				if f := fetches[mid]; f.Shard < r.Shard || (f.Shard == r.Shard && f.Offset <= r.Offset) {
					a = mid + 1
				} else {
					b = mid
				}
			}
			start := r.Offset - fetches[a-1].Offset
			coeffs[hi] = terms[hi].Coeff
			inputs[hi] = bufs[a-1][start : start+length]
		}
		gf256.MulAddSlices(coeffs[lo:hi], inputs[lo:hi], out[off:off+length])
		lo = hi
	}
}

// ExecuteLinearRepair is the single-shard ExecuteRepair of every codec
// that plans linearly: plan, then one evaluation of the plan.
func ExecuteLinearRepair(p LinearRepairPlanner, idx int, shardSize int64, alive AliveFunc, fetch FetchFunc) ([]byte, error) {
	plan, err := p.PlanLinearRepair(idx, shardSize, alive)
	if err != nil {
		return nil, err
	}
	return EvaluateLinearPlan(plan, fetch)
}
