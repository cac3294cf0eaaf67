package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// randomCodec draws one of the three codec families with small random
// parameters, so plans span whole-shard, half-shard, and XOR terms.
func randomCodec(t *testing.T, rng *rand.Rand) ec.Code {
	t.Helper()
	k := 2 + rng.Intn(6)
	r := 2 + rng.Intn(3)
	switch rng.Intn(3) {
	case 0:
		c, err := rs.New(k, r)
		if err != nil {
			t.Fatal(err)
		}
		return c
	case 1:
		c, err := core.New(k, r)
		if err != nil {
			t.Fatal(err)
		}
		return c
	default:
		c, err := lrc.New(k, r, 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// memRead is the read half of an in-memory fake transport: ranges come
// straight out of the stripe's shards (nil is a phantom position, known
// zeros) — what the fixer and the datanodes read, minus stores and
// network. A nil placement serves any position to any machine;
// otherwise a machine may only read positions placed on it, so a term
// that strayed to the wrong node fails the fold. bend, when set,
// tampers with every range handed over.
func memRead(shards [][]byte, size int64, placement []int, bend func([]byte) []byte) func(int, ec.ReadRequest) ([]byte, error) {
	return func(machine int, req ec.ReadRequest) ([]byte, error) {
		if placement != nil && placement[req.Shard] != machine {
			return nil, fmt.Errorf("machine %d asked for position %d, which machine %d holds", machine, req.Shard, placement[req.Shard])
		}
		shard := shards[req.Shard]
		if shard == nil {
			shard = make([]byte, size)
		}
		out := shard[req.Offset : req.Offset+req.Length]
		if bend != nil {
			out = bend(out)
		}
		return out, nil
	}
}

// foldTree is Fold over the whole subtree at n with the in-memory
// transport: read serves a range out of a machine's shards, and a
// child's partial sum is the fold of its subtree.
func foldTree(n *AggNode, size int64, read func(machine int, req ec.ReadRequest) ([]byte, error)) ([]byte, error) {
	return Fold(n.Terms, size,
		func(req ec.ReadRequest) ([]byte, error) { return read(n.Machine, req) },
		func() (parts [][]byte, err error) {
			parts = make([][]byte, len(n.Children))
			for i, c := range n.Children {
				if parts[i], err = foldTree(c, size, read); err != nil {
					return nil, err
				}
			}
			return parts, nil
		})
}

// repairBothShapes runs one repair through Fold in its two shapes — a
// single node holding every term of the plan, and the tree asked for its
// root's partial sum — and fails unless both return want.
func repairBothShapes(t *testing.T, what string, plan *ec.LinearPlan, tree *AggPlan, shards [][]byte, placement []int, want []byte) {
	t.Helper()
	anywhere := memRead(shards, plan.ShardSize, nil, nil)
	single, err := Fold(plan.Terms, plan.ShardSize,
		func(req ec.ReadRequest) ([]byte, error) { return anywhere(0, req) },
		func() ([][]byte, error) { return nil, nil })
	if err != nil || !bytes.Equal(single, want) {
		t.Fatalf("%s: single-node fold differs from the reconstructed shard (err %v)", what, err)
	}
	got, err := tree.Repair(func(root *AggNode) ([]byte, error) {
		return foldTree(root, tree.TargetSize, memRead(shards, tree.TargetSize, placement, nil))
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: tree fold differs from the reconstructed shard (err %v)", what, err)
	}
}

// TestAggregationTreeProperties is the randomized-placement property
// suite: for random codecs, random failure targets, and random
// machine/rack placements, every planned tree must
//
//  1. cover every helper machine exactly once and every linear-plan
//     term exactly once (no double counting, no drops),
//  2. respect rack locality — each rack forwards exactly one partial
//     buffer across its TOR,
//  3. fold to the same effective coefficients as the direct decode
//     vector, verified both symbolically (flattened terms == plan
//     terms) and numerically (tree fold == plan evaluation == the
//     original shard bytes).
func TestAggregationTreeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const shardSize = 32
	for trial := 0; trial < 200; trial++ {
		code := randomCodec(t, rng)
		lp := code.(ec.LinearRepairPlanner)
		total := code.TotalShards()

		// Random placement: shards land on random machines of a random
		// topology; co-location (several shards on one machine or rack)
		// is allowed so the merge paths get exercised.
		racks := 2 + rng.Intn(total+2)
		perRack := 1 + rng.Intn(3)
		machines := racks * perRack
		placement := make([]int, total)
		for i := range placement {
			placement[i] = rng.Intn(machines)
		}
		rackOf := func(m int) int { return m / perRack }
		holderOf := func(pos int) (int, bool, error) { return placement[pos], true, nil }

		idx := rng.Intn(total)
		plan, err := lp.PlanLinearRepair(idx, shardSize, ec.AllAliveExcept(idx))
		if err != nil {
			t.Fatalf("trial %d %s idx %d: %v", trial, code.Name(), idx, err)
		}
		tree, err := PlanRepairTree(plan, holderOf, rackOf)
		if err != nil {
			t.Fatalf("trial %d %s idx %d: %v", trial, code.Name(), idx, err)
		}
		if err := tree.Validate(rackOf); err != nil {
			t.Fatalf("trial %d %s idx %d: %v", trial, code.Name(), idx, err)
		}

		// (1) Coverage: the helper machine set is exactly the placement
		// image of the plan's sources, each appearing once (Validate
		// rejects duplicates; check the sets match).
		wantMachines := map[int]bool{}
		for _, term := range plan.Terms {
			wantMachines[placement[term.Read.Shard]] = true
		}
		nodes := tree.Nodes()
		if len(nodes) != len(wantMachines) {
			t.Fatalf("trial %d: tree has %d nodes, want %d helper machines", trial, len(nodes), len(wantMachines))
		}
		for _, n := range nodes {
			if !wantMachines[n.Machine] {
				t.Fatalf("trial %d: tree contains non-helper machine %d", trial, n.Machine)
			}
		}

		// (3a) Symbolic: flattened tree terms == plan terms, exactly once.
		type key struct {
			shard     int
			off, ln   int64
			targetOff int64
		}
		planCoeff := map[key]byte{}
		for _, term := range plan.Terms {
			planCoeff[key{term.Read.Shard, term.Read.Offset, term.Read.Length, term.TargetOff}] = term.Coeff
		}
		seen := map[key]bool{}
		for _, term := range tree.FlattenTerms() {
			k := key{term.Read.Shard, term.Read.Offset, term.Read.Length, term.TargetOff}
			if seen[k] {
				t.Fatalf("trial %d: term %+v folded twice", trial, term)
			}
			seen[k] = true
			if planCoeff[k] != term.Coeff {
				t.Fatalf("trial %d: term %+v has coeff %d, decode vector says %d", trial, term, term.Coeff, planCoeff[k])
			}
		}
		if len(seen) != len(planCoeff) {
			t.Fatalf("trial %d: tree folds %d terms, plan has %d", trial, len(seen), len(planCoeff))
		}

		// (3b) Numeric: run both shapes of the repair over a real stripe
		// and compare with the codec's own reconstruction, byte for byte.
		shards := make([][]byte, total)
		for i := 0; i < code.DataShards(); i++ {
			shards[i] = make([]byte, shardSize)
			rng.Read(shards[i])
		}
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		damaged := append([][]byte(nil), shards...)
		damaged[idx] = nil
		if err := code.Reconstruct(damaged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(damaged[idx], shards[idx]) {
			t.Fatalf("trial %d %s idx %d: Reconstruct differs from the original shard", trial, code.Name(), idx)
		}
		repairBothShapes(t, fmt.Sprintf("trial %d %s idx %d", trial, code.Name(), idx), plan, tree, shards, placement, damaged[idx])
	}
}

// TestAggregationTreePhantoms: phantom positions (a short tail stripe's
// known zeros) drop out of the tree and both shapes still repair the
// stripe byte for byte, with two stripe positions on one machine; a plan
// that reads only phantoms is a zero shard nobody is asked for; and a
// transport that hands over a short or a long buffer — a range, a
// child's partial sum, the root's — is ec.ErrShardSize, never a panic in
// the kernel.
func TestAggregationTreePhantoms(t *testing.T) {
	const shardSize = 16
	rsCode, err := rs.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := lrc.New(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rackOf := func(m int) int { return m / 2 }
	for _, code := range []ec.Code{rsCode, pb, local} {
		total := code.TotalShards()
		// A tail stripe: data positions 2 and 3 are phantoms.
		full := make([][]byte, total)
		for i := 0; i < code.DataShards(); i++ {
			full[i] = make([]byte, shardSize)
			if i < 2 {
				rand.New(rand.NewSource(int64(i))).Read(full[i])
			}
		}
		if err := code.Encode(full); err != nil {
			t.Fatal(err)
		}
		stored := append([][]byte(nil), full...)
		stored[2], stored[3] = nil, nil
		// Positions 0 and 1 share machine 0; every other one has its own.
		placement := make([]int, total)
		for pos := 2; pos < total; pos++ {
			placement[pos] = pos
		}
		holderOf := func(pos int) (int, bool, error) { return placement[pos], stored[pos] != nil, nil }

		for _, idx := range []int{0, code.DataShards()} {
			plan, err := code.(ec.LinearRepairPlanner).PlanLinearRepair(idx, shardSize, ec.AllAliveExcept(idx))
			if err != nil {
				t.Fatal(err)
			}
			tree, err := PlanRepairTree(plan, holderOf, rackOf)
			if err != nil {
				t.Fatalf("%s idx %d: %v", code.Name(), idx, err)
			}
			if err := tree.Validate(rackOf); err != nil {
				t.Fatalf("%s idx %d: %v", code.Name(), idx, err)
			}
			for _, term := range tree.FlattenTerms() {
				if term.Read.Shard == 2 || term.Read.Shard == 3 {
					t.Fatalf("%s idx %d: phantom shard %d appears in tree", code.Name(), idx, term.Read.Shard)
				}
			}
			damaged := append([][]byte(nil), full...)
			damaged[idx] = nil
			if err := code.Reconstruct(damaged); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s idx %d", code.Name(), idx)
			repairBothShapes(t, what, plan, tree, stored, placement, damaged[idx])

			// Wrong-length buffers, one byte short and one byte long.
			for name, bend := range map[string]func([]byte) []byte{
				"short": func(b []byte) []byte { return b[:len(b)-1] },
				"long":  func(b []byte) []byte { return append(append([]byte(nil), b...), 0) },
			} {
				if _, err := foldTree(tree.Root, shardSize, memRead(stored, shardSize, placement, bend)); !errors.Is(err, ec.ErrShardSize) {
					t.Fatalf("%s: fold over a transport handing out %s ranges: %v, want ErrShardSize", what, name, err)
				}
				// Honest ranges, bent partial sums. The data target's tree
				// has children; the parity target's helpers here all sit on
				// machine 0, a tree of one node.
				if idx == 0 && len(tree.Root.Children) == 0 {
					t.Fatalf("%s: root has no children to bend", what)
				}
				if len(tree.Root.Children) > 0 {
					honest := memRead(stored, shardSize, placement, nil)
					_, err := Fold(tree.Root.Terms, shardSize,
						func(req ec.ReadRequest) ([]byte, error) { return honest(tree.Root.Machine, req) },
						func() ([][]byte, error) {
							var parts [][]byte
							for _, c := range tree.Root.Children {
								sum, err := foldTree(c, shardSize, honest)
								if err != nil {
									return nil, err
								}
								parts = append(parts, bend(sum))
							}
							return parts, nil
						})
					if !errors.Is(err, ec.ErrShardSize) {
						t.Fatalf("%s: fold over %s partial sums: %v, want ErrShardSize", what, name, err)
					}
				}
				if _, err := tree.Repair(func(*AggNode) ([]byte, error) { return bend(damaged[idx]), nil }); !errors.Is(err, ec.ErrShardSize) {
					t.Fatalf("%s: a %s root sum: %v, want ErrShardSize", what, name, err)
				}
			}
		}
	}

	plan, err := rsCode.PlanLinearRepair(0, shardSize, ec.AllAliveExcept(0))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := PlanRepairTree(plan, func(int) (int, bool, error) { return 0, false, nil }, rackOf)
	if err != nil || tree.Root != nil {
		t.Fatalf("all-phantom plan: tree %+v, err %v, want a tree without a root", tree, err)
	}
	zeros, err := tree.Repair(func(*AggNode) ([]byte, error) {
		t.Fatal("a tree without a root asked someone for its sum")
		return nil, nil
	})
	if err != nil || !bytes.Equal(zeros, make([]byte, shardSize)) {
		t.Fatalf("all-phantom repair: %v, err %v, want %d zeros", zeros, err, shardSize)
	}
	lost := errors.New("no live holder")
	if _, err := PlanRepairTree(plan, func(int) (int, bool, error) { return 0, false, lost }, rackOf); !errors.Is(err, lost) {
		t.Fatalf("a position without a holder: %v, want the holder policy's error", err)
	}
}
