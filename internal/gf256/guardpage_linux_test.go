package gf256

import (
	"syscall"
	"testing"
)

// TestKernelsStayInBounds puts each operand flush against an unmapped
// page, before it and after it, so a kernel that reads or writes one
// byte outside [0, len) dies with a fault instead of passing. The
// guard-byte checks in the differential tests catch stray writes; only
// this catches stray reads.
func TestKernelsStayInBounds(t *testing.T) { checkInBounds(t) }

func checkInBounds(t *testing.T) {
	page := syscall.Getpagesize()
	// fenced returns a page of memory with an inaccessible page on each side.
	fenced := func() []byte {
		m, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Skipf("mmap: %v", err)
		}
		t.Cleanup(func() { _ = syscall.Munmap(m) }) // test memory; nothing to do if it fails
		for _, fence := range [][]byte{m[:page], m[2*page:]} {
			if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
				t.Skipf("mprotect: %v", err)
			}
		}
		return m[page : 2*page]
	}
	a, b, o := fenced(), fenced(), fenced()
	for i := range a {
		a[i], b[i] = byte(i), byte(3*i+1)
	}
	// 17 fused inputs: one full GFNI pass and a second of one.
	coeffs := make([]byte, 17)
	inputs := make([][]byte, len(coeffs))
	for i := range coeffs {
		coeffs[i] = byte(i + 2)
	}
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, page} {
		// Flush against the fence after, then against the fence before.
		for _, at := range []int{page - n, 0} {
			in1, in2, out := a[at:at+n], b[at:at+n], o[at:at+n]
			MulSlice(0x8e, in1, out)
			MulSliceXor(0x8e, in1, out)
			MulSliceXor(1, in1, out)
			XorSlice(in2, out)
			MulAddSlices([]byte{5, 6}, [][]byte{in1, in2}, out)
			for i := range inputs {
				inputs[i] = [][]byte{in1, in2}[i%2]
			}
			MulAddSlices(coeffs, inputs, out)
			XorAllSlices([][]byte{in1, in2}, out)
		}
	}
}
