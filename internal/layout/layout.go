// Package layout models how the two substripes of a piggybacked code
// are placed inside a block on disk, and what that does to the disk
// reads of a repair — the systems problem the paper's §4 ("we are
// currently implementing the proposed code in HDFS") had to solve next,
// published later as Hitchhiker's "hop-and-couple".
//
// A piggybacked block holds one symbol of substripe a and one of
// substripe b. Two physical layouts are possible:
//
//   - Coupled (the layout internal/core uses): all of substripe a in
//     the first half of the block, all of substripe b in the second.
//     A repair that wants only the b-half reads ONE contiguous range of
//     half the block.
//
//   - Interleaved (the naive byte-level-stripe layout of Fig. 2
//     applied blindly): substripe symbols alternate byte by byte
//     (a0 b0 a1 b1 ...). Logically adjacent half-stripe bytes sit 2
//     bytes apart physically, so serving a half-read means either a
//     seek per byte or reading the covering window and discarding half
//     — in practice the whole block. The network still carries only
//     the filtered half, but the DISK reads as much as a full-block
//     repair, erasing half of the paper's savings.
//
// The package quantifies the disk-read geometry of repair plans under
// each layout, so the ablation benchmarks can show why the coupled
// layout is the one that ships.
package layout

import (
	"fmt"
	"slices"

	"repro/internal/ec"
)

// Kind selects a physical substripe layout.
type Kind int

const (
	// Coupled stores substripe a contiguously in the first half of the
	// block and substripe b in the second half.
	Coupled Kind = iota
	// Interleaved alternates one byte of substripe a with one byte of
	// substripe b.
	Interleaved
)

// String names the layout.
func (k Kind) String() string {
	switch k {
	case Coupled:
		return "coupled"
	case Interleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("layout.Kind(%d)", int(k))
	}
}

// Range is one contiguous physical byte range on disk.
type Range struct {
	Off int64
	Len int64
}

// DiskReads returns the physical contiguous ranges a block holder must
// read to serve the logical (coupled-address) range [off, off+n) of a
// block of the given size, when the block is stored in layout k.
//
// Under Coupled the logical and physical addresses coincide: one range.
// Under Interleaved a request confined to one substripe half touches
// every other byte of a 2n-wide window, and a practical reader fetches
// the whole window and discards half (seeking per byte would be far
// worse); requests spanning both halves degrade to the full covering
// window.
func DiskReads(k Kind, blockSize, off, n int64) ([]Range, error) {
	if off < 0 || n < 0 || off+n > blockSize {
		return nil, fmt.Errorf("layout: range [%d, %d) outside block of %d bytes", off, off+n, blockSize)
	}
	if n == 0 {
		return nil, nil
	}
	switch k {
	case Coupled:
		return []Range{{Off: off, Len: n}}, nil
	case Interleaved:
		h := blockSize / 2
		switch {
		case off+n <= h:
			// Entirely in substripe a: physical bytes 2*off .. 2*(off+n)-2.
			return []Range{{Off: 2 * off, Len: 2*n - 1}}, nil
		case off >= h:
			// Entirely in substripe b: physical bytes 2*(off-h)+1 ...
			return []Range{{Off: 2*(off-h) + 1, Len: 2*n - 1}}, nil
		default:
			// Spans both halves: the two interleaved windows overlap
			// across essentially the whole block, so a practical reader
			// fetches the block once.
			return []Range{{Off: 0, Len: blockSize}}, nil
		}
	default:
		return nil, fmt.Errorf("layout: unknown kind %v", k)
	}
}

// PlanGeometry aggregates the disk-read geometry of one repair plan
// under a layout: how many contiguous ranges the helpers must read in
// total and how many physical bytes leave their disks. Network bytes
// are layout-independent (helpers filter before sending); disk bytes
// are not — that asymmetry is the whole point. The reads are placed as
// the executor fetches them, coalesced (ec.CoalesceReads), so a shard
// listed as two halves (see ec.RepairPlan) is one whole-shard read.
func PlanGeometry(k Kind, plan *ec.RepairPlan) (ranges int, diskBytes int64, err error) {
	for _, r := range ec.CoalesceReads(slices.Clone(plan.Reads)) {
		rs, err := DiskReads(k, plan.ShardSize, r.Offset, r.Length)
		if err != nil {
			return 0, 0, err
		}
		ranges += len(rs)
		for _, rr := range rs {
			diskBytes += rr.Len
		}
	}
	return ranges, diskBytes, nil
}
