package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// The differential tests hold whichever kernel this build and this CPU
// select to a byte-at-a-time Mul reference. They run in the default
// build (the highest tier the host has), under -tags purego (make
// test-purego), and once per tier the host can run (TestCPUFeatureGate)
// — so every kernel is proved on a host that has them all.

const (
	kernelAlign  = 64   // the widest single-input step: offsets 0..63 are every alignment
	kernelGuard  = 64   // bytes on each side of out that must not change
	kernelMaxLen = 4097 // longest case
	kernelMaxIn  = 33   // most fused inputs: two full GFNI passes of 16 and one more
)

// tierNames are the tiers as the package doc and the test log name them.
var tierNames = [...]string{tierTable: "table", tierAVX2: "avx2", tierGFNI: "gfni"}

// fusedInputCounts are the fused cases' input counts: every count up to
// one past a GFNI pass (RS(10,4) decodes with 10, a whole stripe is 14,
// a piggybacked data repair folds 24), then the pass boundaries beyond.
func fusedInputCounts() []int {
	ns := make([]int, 0, 20)
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 24, 32, kernelMaxIn)
}

// kernelLengths is every tail shape around one to four vector steps,
// plus the page-sized neighbours.
func kernelLengths() []int {
	ls := make([]int, 0, 134)
	for n := 0; n <= 130; n++ {
		ls = append(ls, n)
	}
	return append(ls, 4095, 4096, 4097)
}

// alignedBytes returns n bytes whose first element sits on a 64-byte
// boundary, so that a start offset into it is that alignment exactly.
func alignedBytes(n int) []byte {
	b := make([]byte, n+kernelAlign)
	skip := -uintptr(unsafe.Pointer(&b[0])) & (kernelAlign - 1)
	return b[skip : int(skip)+n]
}

// kernelBench is the memory the differential cases run in. dst is what
// the kernels write, want what the reference writes; both start equal
// and every case compares the window around its output, so they stay
// equal unless a kernel is wrong, and a final whole-buffer compare
// catches a stray write further out than any window.
type kernelBench struct {
	src  [kernelMaxIn][]byte
	dst  []byte
	want []byte
}

func newKernelBench(seed int64) *kernelBench {
	rng := rand.New(rand.NewSource(seed))
	kb := &kernelBench{
		dst:  alignedBytes(kernelGuard + kernelAlign + kernelMaxLen + kernelGuard),
		want: make([]byte, kernelGuard+kernelAlign+kernelMaxLen+kernelGuard),
	}
	for i := range kb.src {
		kb.src[i] = alignedBytes(kernelAlign + kernelMaxLen)
		rng.Read(kb.src[i])
	}
	rng.Read(kb.dst)
	copy(kb.want, kb.dst)
	return kb
}

// out returns the n-byte output at alignment off in dst, its twin in
// want, and the two guarded windows around them.
func (kb *kernelBench) out(off, n int) (out, ref, window, refWindow []byte) {
	lo, hi := kernelGuard+off, kernelGuard+off+n
	return kb.dst[lo:hi], kb.want[lo:hi], kb.dst[:hi+kernelGuard], kb.want[:hi+kernelGuard]
}

// in returns input i's n bytes at alignment off.
func (kb *kernelBench) in(i, off, n int) []byte { return kb.src[i][off : off+n] }

// unaryOps are the single-input bulk operations with their per-byte
// meaning: ref(c, v, o) is what out holds after the call where it held
// o and in held v.
var unaryOps = []struct {
	name string
	run  func(c byte, in, out []byte)
	ref  func(c, v, o byte) byte
}{
	{"MulSliceXor", MulSliceXor, func(c, v, o byte) byte { return o ^ Mul(c, v) }},
	{"MulSlice", MulSlice, func(c, v, o byte) byte { return Mul(c, v) }},
	{"XorSlice", func(_ byte, in, out []byte) { XorSlice(in, out) }, func(_, v, o byte) byte { return o ^ v }},
}

// checkUnary runs every single-input operation on one (coefficient,
// length, source alignment, destination alignment) case.
func checkUnary(t *testing.T, kb *kernelBench, c byte, n, srcOff, dstOff int) {
	t.Helper()
	in := kb.in(0, srcOff, n)
	for _, op := range unaryOps {
		out, ref, window, refWindow := kb.out(dstOff, n)
		for j, v := range in {
			ref[j] = op.ref(c, v, ref[j])
		}
		op.run(c, in, out)
		if !bytes.Equal(window, refWindow) {
			t.Fatalf("%s c=%#x len=%d srcOff=%d dstOff=%d: output or guard bytes differ from the reference",
				op.name, c, n, srcOff, dstOff)
		}
	}
}

// checkFused runs MulAddSlices and XorAllSlices over the first
// len(coeffs) inputs, input i at alignment srcOff+i, on one case.
func checkFused(t *testing.T, kb *kernelBench, coeffs []byte, n, srcOff, dstOff int) {
	t.Helper()
	inputs := make([][]byte, len(coeffs))
	for i := range inputs {
		inputs[i] = kb.in(i, (srcOff+i)%kernelAlign, n)
	}
	out, ref, window, refWindow := kb.out(dstOff, n)
	for i, in := range inputs {
		for j, v := range in {
			ref[j] ^= Mul(coeffs[i], v)
		}
	}
	MulAddSlices(coeffs, inputs, out)
	if !bytes.Equal(window, refWindow) {
		t.Fatalf("MulAddSlices coeffs=%x len=%d srcOff=%d dstOff=%d: output or guard bytes differ from the reference",
			coeffs, n, srcOff, dstOff)
	}
	for _, in := range inputs {
		for j, v := range in {
			ref[j] ^= v
		}
	}
	XorAllSlices(inputs, out)
	if !bytes.Equal(window, refWindow) {
		t.Fatalf("XorAllSlices inputs=%d len=%d srcOff=%d dstOff=%d: output or guard bytes differ from the reference",
			len(inputs), n, srcOff, dstOff)
	}
}

// checkKernels is the whole differential sweep against whichever kernel
// is live when it is called.
func checkKernels(t *testing.T) {
	kb := newKernelBench(17)
	lengths := kernelLengths()

	// Every coefficient x every length; the alignments walk, so that this
	// sweep also puts every length at every source and every destination
	// alignment.
	for c := 0; c < 256; c++ {
		for li, n := range lengths {
			checkUnary(t, kb, byte(c), n, (c+li)%kernelAlign, (3*c+7*li)%kernelAlign)
		}
	}
	// Every source alignment x every destination alignment x every
	// length up to 130 (the page-sized ones differ only in loop count);
	// the coefficient walks through all 256 values many times.
	c := 0
	for srcOff := 0; srcOff < kernelAlign; srcOff++ {
		for dstOff := 0; dstOff < kernelAlign; dstOff++ {
			for n := 0; n <= 130; n++ {
				checkUnary(t, kb, byte(c), n, srcOff, dstOff)
				c += 5 // odd stride: visits every byte value
			}
		}
	}
	// Every fused input count x every length, each input at its own
	// walking alignment, x five coefficient vectors: random, a zero
	// forced in, a one forced in, both, and all ones (MulAddSlices' XOR
	// path).
	rng := rand.New(rand.NewSource(18))
	for _, nIn := range fusedInputCounts() {
		coeffs := make([]byte, nIn)
		for li, n := range lengths {
			for mix := 0; mix < 5; mix++ {
				rng.Read(coeffs)
				if mix == 1 || mix == 3 {
					coeffs[rng.Intn(nIn)] = 0
				}
				if mix == 2 || mix == 3 {
					coeffs[rng.Intn(nIn)] = 1
				}
				if mix == 4 {
					for i := range coeffs {
						coeffs[i] = 1
					}
				}
				checkFused(t, kb, coeffs, n, (3*li+mix)%kernelAlign, (nIn+li+11*mix)%kernelAlign)
			}
		}
	}
	if !bytes.Equal(kb.dst, kb.want) {
		t.Fatal("a kernel wrote outside every case's guarded window")
	}
	checkExactAlias(t)
}

// TestKernelsMatchReference sweeps the tier this build and host run,
// and logs which one that is.
func TestKernelsMatchReference(t *testing.T) {
	t.Logf("gf256 kernel tier: %s", tierNames[tier])
	checkKernels(t)
}

// checkExactAlias pins the half of the aliasing contract that callers
// use: in and out being the same slice is allowed on every single-input
// operation (matrix inversion calls MulSlice(inv, row, row)).
func checkExactAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range kernelLengths() {
		orig := make([]byte, n)
		rng.Read(orig)
		for _, c := range []byte{0, 1, 2, 0x8e, 0xff} {
			for _, op := range unaryOps {
				row := append([]byte(nil), orig...)
				op.run(c, row, row)
				for j, v := range orig {
					if want := op.ref(c, v, v); row[j] != want {
						t.Fatalf("%s(c=%#x) in place, len=%d: byte %d = %#x, want %#x", op.name, c, n, j, row[j], want)
					}
				}
			}
		}
	}
}

// TestPartialOverlapPanics pins the other half: any overlap that is not
// exact aliasing is refused before a byte is written, on every entry
// point, whichever kernel the length would have reached. The fused
// forms refuse exact aliasing too (shift 0): their result would depend
// on the fold order.
func TestPartialOverlapPanics(t *testing.T) {
	for _, n := range []int{1, 5, 31, 32, 33, 100, 4096} {
		for _, shift := range []int{0, 1, 31, 32, n - 1, n / 2} {
			if shift >= n {
				continue
			}
			buf := make([]byte, n+shift)
			for i := range buf {
				buf[i] = byte(i*7 + 1)
			}
			before := append([]byte(nil), buf...)
			lo, hi := buf[:n], buf[shift:]
			other := make([]byte, n)
			calls := map[string]func(in, out []byte){
				"MulAddSlices": func(in, out []byte) { MulAddSlices([]byte{2, 3}, [][]byte{other, in}, out) },
				"XorAllSlices": func(in, out []byte) { XorAllSlices([][]byte{other, in}, out) },
			}
			if shift > 0 {
				calls["MulSlice"] = func(in, out []byte) { MulSlice(7, in, out) }
				calls["MulSliceXor"] = func(in, out []byte) { MulSliceXor(7, in, out) }
				calls["MulSliceXor c=1"] = func(in, out []byte) { MulSliceXor(1, in, out) }
				calls["XorSlice"] = XorSlice
			}
			for name, call := range calls {
				for _, dir := range []struct {
					name    string
					in, out []byte
				}{{"out after in", lo, hi}, {"out before in", hi, lo}} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s len=%d shift=%d (%s): partial overlap did not panic", name, n, shift, dir.name)
							}
						}()
						call(dir.in, dir.out)
					}()
					if !bytes.Equal(buf, before) {
						t.Fatalf("%s len=%d shift=%d (%s): bytes changed before the panic", name, n, shift, dir.name)
					}
				}
			}
		}
	}
}

// TestKernelsDoNotAllocate: a fold runs once per repaired block per
// helper; garbage here is multiplied by the repair volume.
func TestKernelsDoNotAllocate(t *testing.T) { checkNoAlloc(t) }

func checkNoAlloc(t *testing.T) {
	const size = 64<<10 + 5 // two chunks and a tail
	rng := rand.New(rand.NewSource(20))
	inputs := make([][]byte, 20)
	coeffs := make([]byte, len(inputs))
	for i := range inputs {
		inputs[i] = make([]byte, size)
		rng.Read(inputs[i])
		coeffs[i] = byte(i) // a zero, a one and multiplies
	}
	out := make([]byte, size)
	for name, fn := range map[string]func(){
		"MulSliceXor":      func() { MulSliceXor(0x8e, inputs[0], out) },
		"MulSlice":         func() { MulSlice(0x8e, inputs[0], out) },
		"XorSlice":         func() { XorSlice(inputs[0], out) },
		"MulAddSlices":     func() { MulAddSlices(coeffs[:10], inputs[:10], out) },
		"MulAddSlices x20": func() { MulAddSlices(coeffs, inputs, out) }, // two GFNI passes
		"XorAllSlices":     func() { XorAllSlices(inputs, out) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// FuzzMulAdd drives MulAddSlices (and through it the vector kernel, the
// XOR path, the pair-fused table kernel and every tail) with arbitrary
// data, coefficient vectors and alignments against the Mul reference.
func FuzzMulAdd(f *testing.F) {
	f.Add([]byte("facebook warehouse cluster 2013 rs(10,4) piggybacked"), []byte{0x8e, 0, 1, 0xff}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0x00, 0xff}, 40), []byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint16(0x3e1))
	f.Add([]byte{7}, []byte{1, 1, 1}, uint16(33))
	f.Add([]byte{}, []byte{9}, uint16(5))
	f.Fuzz(func(t *testing.T, data, coeffs []byte, offs uint16) {
		if len(data) > kernelMaxLen {
			data = data[:kernelMaxLen]
		}
		if len(coeffs) > kernelMaxIn {
			coeffs = coeffs[:kernelMaxIn]
		}
		n := len(data)
		dstOff, srcOff := int(offs)%kernelAlign, int(offs>>5)%kernelAlign
		// Input i is data rotated by i and whitened by i, at its own
		// alignment: distinct bytes per input from one fuzzed blob.
		inputs := make([][]byte, len(coeffs))
		for i := range inputs {
			inputs[i] = alignedBytes(kernelAlign + n)[(srcOff+i)%kernelAlign:][:n]
			for j := range inputs[i] {
				inputs[i][j] = data[(j+i)%n] ^ byte(i*29)
			}
		}
		window := alignedBytes(kernelGuard + kernelAlign + n + kernelGuard)[:kernelGuard+dstOff+n+kernelGuard]
		for j := range window {
			window[j] = byte(j*131 + 7)
		}
		want := append([]byte(nil), window...)
		out, ref := window[kernelGuard+dstOff:][:n], want[kernelGuard+dstOff:][:n]
		for i, in := range inputs {
			for j, v := range in {
				ref[j] ^= Mul(coeffs[i], v)
			}
		}
		MulAddSlices(coeffs, inputs, out)
		if !bytes.Equal(window, want) {
			t.Fatalf("MulAddSlices coeffs=%x len=%d srcOff=%d dstOff=%d differs from the reference", coeffs, n, srcOff, dstOff)
		}
	})
}

// BenchmarkMulAddSlices is the fold at the shapes the system runs it:
// 4 KiB (small_read blocks), 64 KiB (node_repair blocks) and 256 KiB
// (healthy_read blocks) by 1 input (a partial-sum hop), 10 (an RS(10,4)
// decode) and 14 (a whole stripe). MB/s counts input bytes.
func BenchmarkMulAddSlices(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10} {
		for _, nIn := range []int{1, 10, 14} {
			b.Run(fmt.Sprintf("%dKiBx%d", size>>10, nIn), func(b *testing.B) {
				benchMulAdd(b, size, nIn, 0)
			})
		}
	}
	// Every slice one byte off a 64-byte boundary: the cost of unaligned
	// vector loads and stores, which is what pooled buffers sliced at
	// plan offsets give the kernel in practice.
	b.Run("64KiBx10_unaligned", func(b *testing.B) { benchMulAdd(b, 64<<10, 10, 1) })
}

func benchMulAdd(b *testing.B, size, nIn, off int) {
	rng := rand.New(rand.NewSource(7))
	coeffs := make([]byte, nIn)
	inputs := make([][]byte, nIn)
	for i := range inputs {
		coeffs[i] = byte(2 + rng.Intn(254))
		inputs[i] = alignedBytes(size + off)[off:]
		rng.Read(inputs[i])
	}
	out := alignedBytes(size + off)[off:]
	b.SetBytes(int64(nIn * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlices(coeffs, inputs, out)
	}
}
