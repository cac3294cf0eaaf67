package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatalf("Add(0x53, 0xCA) = %#x, want %#x", Add(0x53, 0xCA), 0x53^0xCA)
	}
	if Sub(0x53, 0xCA) != Add(0x53, 0xCA) {
		t.Fatal("Sub must equal Add in characteristic 2")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11D.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 21, 0},
		{1, 1, 1},
		{1, 173, 173},
		{2, 2, 4},
		{2, 0x80, 0x1D}, // 0x100 reduces by 0x11D
		{0x53, 0xCA, 0x8F},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for x := 0; x < 256; x++ {
		b := byte(x)
		if Mul(b, 1) != b {
			t.Fatalf("Mul(%#x, 1) != %#x", b, b)
		}
		if Mul(b, 0) != 0 {
			t.Fatalf("Mul(%#x, 0) != 0", b)
		}
	}
}

func TestInverses(t *testing.T) {
	for x := 1; x < 256; x++ {
		b := byte(x)
		inv := Inv(b)
		if Mul(b, inv) != 1 {
			t.Fatalf("Mul(%#x, Inv(%#x)) = %#x, want 1", b, b, Mul(b, inv))
		}
		if Div(1, b) != inv {
			t.Fatalf("Div(1, %#x) != Inv(%#x)", b, b)
		}
	}
}

func TestDivRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(7, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpCyclesThroughAllNonZero(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator powers cover %d elements, want 255", len(seen))
	}
	if seen[0] {
		t.Fatal("generator powers must never be zero")
	}
	if Exp(0) != 1 {
		t.Fatalf("Exp(0) = %#x, want 1", Exp(0))
	}
	if Exp(255) != 1 {
		t.Fatalf("Exp(255) = %#x, want 1 (order 255)", Exp(255))
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0,0) must be 1")
	}
	if Pow(0, 5) != 0 {
		t.Fatal("Pow(0,5) must be 0")
	}
	f := func(x byte, nRaw uint8) bool {
		n := int(nRaw % 16)
		want := byte(1)
		for i := 0; i < n; i++ {
			want = Mul(want, x)
		}
		return Pow(x, n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	for x := 1; x < 256; x++ {
		if Exp(Log(byte(x))) != byte(x) {
			t.Fatalf("Exp(Log(%#x)) != %#x", x, x)
		}
	}
}

func TestMulSlice(t *testing.T) {
	in := []byte{0, 1, 2, 3, 0x80, 0xFF}
	out := make([]byte, len(in))
	MulSlice(0x1D, in, out)
	for i := range in {
		if out[i] != Mul(0x1D, in[i]) {
			t.Fatalf("MulSlice mismatch at %d", i)
		}
	}
	// c == 1 copies.
	MulSlice(1, in, out)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("MulSlice with c=1 must copy")
		}
	}
	// c == 0 zeroes.
	MulSlice(0, in, out)
	for i := range out {
		if out[i] != 0 {
			t.Fatal("MulSlice with c=0 must zero")
		}
	}
}

func TestMulSliceXorAccumulates(t *testing.T) {
	in := []byte{5, 6, 7, 8}
	out := []byte{1, 2, 3, 4}
	want := make([]byte, 4)
	for i := range want {
		want[i] = out[i] ^ Mul(9, in[i])
	}
	MulSliceXor(9, in, out)
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("MulSliceXor mismatch at %d: got %#x want %#x", i, out[i], want[i])
		}
	}
	// c == 0 must leave out untouched.
	before := append([]byte(nil), out...)
	MulSliceXor(0, in, out)
	for i := range out {
		if out[i] != before[i] {
			t.Fatal("MulSliceXor with c=0 must be a no-op")
		}
	}
}

func TestXorSlice(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	want := []byte{5, 7, 5}
	XorSlice(a, b)
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("XorSlice mismatch at %d", i)
		}
	}
}

func TestSliceLengthMismatchesPanic(t *testing.T) {
	checks := []func(){
		func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		func() { MulSliceXor(2, make([]byte, 3), make([]byte, 4)) },
		func() { XorSlice(make([]byte, 3), make([]byte, 4)) },
	}
	for i, fn := range checks {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("check %d: length mismatch did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMulSliceXorMatchesScalarProperty(t *testing.T) {
	f := func(c byte, data []byte) bool {
		out := make([]byte, len(data))
		ref := make([]byte, len(data))
		MulSliceXor(c, data, out)
		for i := range data {
			ref[i] = Mul(c, data[i])
		}
		for i := range out {
			if out[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulSliceXor(b *testing.B) {
	in := make([]byte, 64*1024)
	out := make([]byte, 64*1024)
	for i := range in {
		in[i] = byte(i)
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSliceXor(0x8E, in, out)
	}
}

// refMulAdd is the unfused reference: one MulSliceXor pass per input.
func refMulAdd(coeffs []byte, inputs [][]byte, out []byte) {
	for i, in := range inputs {
		MulSliceXor(coeffs[i], in, out)
	}
}

func TestMulAddSlicesMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Sizes straddling the internal chunk boundary, plus odd tails that
	// exercise the unroll remainder.
	for _, size := range []int{0, 1, 3, 7, 100, 4096, 32768, 32769, 65536, 100003} {
		for _, nIn := range []int{1, 2, 3, 4, 10, 14} {
			coeffs := make([]byte, nIn)
			inputs := make([][]byte, nIn)
			for i := range inputs {
				coeffs[i] = byte(rng.Intn(256))
				inputs[i] = make([]byte, size)
				rng.Read(inputs[i])
			}
			// Force some zero and unit coefficients into the mix.
			if nIn >= 2 {
				coeffs[0] = 0
				coeffs[1] = 1
			}
			got := make([]byte, size)
			want := make([]byte, size)
			for i := range got {
				got[i] = byte(rng.Intn(256))
				want[i] = got[i]
			}
			MulAddSlices(coeffs, inputs, got)
			refMulAdd(coeffs, inputs, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlices mismatch at size=%d inputs=%d", size, nIn)
			}
		}
	}
}

func TestMulAddSlicesPanicsOnMismatch(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanic("coeffs/inputs", func() {
		MulAddSlices([]byte{1, 2}, [][]byte{{1}}, []byte{0})
	})
	assertPanic("input length", func() {
		MulAddSlices([]byte{1}, [][]byte{{1, 2}}, []byte{0})
	})
	assertPanic("zero-coeff input length still checked", func() {
		MulAddSlices([]byte{0}, [][]byte{{1, 2}}, []byte{0})
	})
	assertPanic("xor input length", func() {
		XorAllSlices([][]byte{{1, 2}}, []byte{0})
	})
}

func TestXorAllSlicesMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, size := range []int{0, 1, 5, 9, 4096, 32768, 32770, 70001} {
		for _, nIn := range []int{0, 1, 2, 3, 5, 10} {
			inputs := make([][]byte, nIn)
			for i := range inputs {
				inputs[i] = make([]byte, size)
				rng.Read(inputs[i])
			}
			got := make([]byte, size)
			want := make([]byte, size)
			for i := range got {
				got[i] = byte(rng.Intn(256))
				want[i] = got[i]
			}
			XorAllSlices(inputs, got)
			for _, in := range inputs {
				XorSlice(in, want)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("XorAllSlices mismatch at size=%d inputs=%d", size, nIn)
			}
		}
	}
}

func BenchmarkMulAddSlices_10Inputs(b *testing.B) {
	const size = 1 << 20
	coeffs := make([]byte, 10)
	inputs := make([][]byte, 10)
	rng := rand.New(rand.NewSource(7))
	for i := range inputs {
		coeffs[i] = byte(1 + rng.Intn(255))
		inputs[i] = make([]byte, size)
		rng.Read(inputs[i])
	}
	out := make([]byte, size)
	b.SetBytes(10 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlices(coeffs, inputs, out)
	}
}

func BenchmarkMulSliceXor_10Passes(b *testing.B) {
	const size = 1 << 20
	coeffs := make([]byte, 10)
	inputs := make([][]byte, 10)
	rng := rand.New(rand.NewSource(7))
	for i := range inputs {
		coeffs[i] = byte(1 + rng.Intn(255))
		inputs[i] = make([]byte, size)
		rng.Read(inputs[i])
	}
	out := make([]byte, size)
	b.SetBytes(10 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMulAdd(coeffs, inputs, out)
	}
}

// Add returns a+b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8). Subtraction equals addition (characteristic 2).
func Sub(a, b byte) byte { return a ^ b }

// Div returns a/b in GF(2^8). It panics if b is zero, mirroring integer
// division; callers validate operands at construction time.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	logDiff := int(logTable[a]) - int(logTable[b])
	if logDiff < 0 {
		logDiff += 255
	}
	return expTable[logDiff]
}

// Exp returns generator^n for n >= 0.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	return expTable[n%255]
}

// Log returns log_generator(x). It panics if x is zero.
func Log(x byte) int {
	if x == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[x])
}
