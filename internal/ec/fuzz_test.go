package ec_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// FuzzJointRepair drives every codec's ExecuteMultiRepair — one missing
// shard through ExecuteRepair's linear plan, several through the one
// joint decode — over random data, a random codec and geometry, and a
// random set of missing shards within the code's tolerance: up to r
// for RS and Piggybacked-RS, and for LRC up to r among the data and
// global shards, optionally trading the last slot for one local parity
// (as lrc's FuzzRoundTrip bounds it). The repair must return the encoded
// shards, fetch no dead shard, leave the fetched stripe as it was, and
// fetch exactly the bytes PlanMultiRepair charges.
func FuzzJointRepair(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint64(0b1), uint64(0))
	f.Add([]byte("one planner and one joint executor for every codec"), uint64(0b1011), uint64(21))
	f.Add([]byte("piggybacking adds functions of one substripe onto the other"), uint64(0x7fff), uint64(30))
	f.Add([]byte("local parities trade storage for cheap single repairs"), uint64(1<<63|0b101), uint64(42))
	f.Add([]byte{1, 2, 3}, uint64(1<<6), uint64(107))
	// lrc(6,3,3) missing {0,2}: the plan leaves the third group unread.
	f.Add([]byte("three local groups, one of them never read"), uint64(0b101), uint64(179))
	f.Fuzz(func(t *testing.T, data []byte, mask, params uint64) {
		k := 2 + int(params%7)
		r := 2 + int((params/7)%3)
		g := 1 + int((params/63)%uint64(min(k, 4)))
		var code ec.Code
		var err error
		switch (params / 21) % 3 {
		case 0:
			code, err = rs.New(k, r)
		case 1:
			code, err = core.New(k, r)
		default:
			code, err = lrc.New(k, r, g)
		}
		if err != nil {
			t.Fatalf("params %d: %v", params, err)
		}
		total := code.TotalShards()
		_, isLRC := code.(*lrc.Code)

		unit := code.MinShardSize()
		size := (len(data) + k - 1) / k
		size += (unit - size%unit) % unit
		if size < unit {
			size = unit
		}
		shards := make([][]byte, total)
		for i := 0; i < k; i++ {
			shards[i] = make([]byte, size)
			if lo := i * size; lo < len(data) {
				copy(shards[i], data[lo:])
			}
		}
		if err := code.Encode(shards); err != nil {
			t.Fatalf("%s: Encode: %v", code.Name(), err)
		}
		orig := make([][]byte, total)
		for i, s := range shards {
			orig[i] = append([]byte(nil), s...)
		}

		limit := total
		if isLRC {
			limit = k + r
		}
		var missing []int
		for i := 0; i < limit && len(missing) < r; i++ {
			if mask&(1<<(i%64)) != 0 {
				missing = append(missing, i)
			}
		}
		if isLRC && mask&(1<<63) != 0 && len(missing) < r {
			missing = append(missing, k+r+int(mask%uint64(g)))
		}
		if len(missing) == 0 {
			missing = []int{int(mask % uint64(total))}
		}
		alive := ec.AllAliveExcept(missing...)
		shardSize := int64(size)

		plan, err := code.PlanMultiRepair(missing, shardSize, alive)
		if err != nil {
			t.Fatalf("%s: PlanMultiRepair(%v): %v", code.Name(), missing, err)
		}
		var fetched int64
		got, err := code.ExecuteMultiRepair(missing, shardSize, alive, func(req ec.ReadRequest) ([]byte, error) {
			if req.Shard < 0 || req.Shard >= total || req.Offset < 0 || req.Length <= 0 || req.Offset+req.Length > shardSize {
				t.Fatalf("%s missing %v: fetch out of bounds: %+v", code.Name(), missing, req)
			}
			if !alive(req.Shard) {
				t.Fatalf("%s missing %v: fetched dead shard %d", code.Name(), missing, req.Shard)
			}
			fetched += req.Length
			return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
		})
		if err != nil {
			t.Fatalf("%s: ExecuteMultiRepair(%v): %v", code.Name(), missing, err)
		}
		if len(got) != len(missing) {
			t.Fatalf("%s missing %v: %d shards returned", code.Name(), missing, len(got))
		}
		for _, m := range missing {
			if !bytes.Equal(got[m], orig[m]) {
				t.Fatalf("%s missing %v: shard %d differs from the encoded one", code.Name(), missing, m)
			}
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("%s missing %v: fetched shard %d was written", code.Name(), missing, i)
			}
		}
		if fetched != plan.TotalBytes() {
			t.Fatalf("%s missing %v: fetched %d bytes, PlanMultiRepair charges %d", code.Name(), missing, fetched, plan.TotalBytes())
		}
	})
}
