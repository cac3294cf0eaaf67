//go:build amd64 && !purego

package gf256

import "testing"

// TestCPUFeatureGate runs the whole differential sweep with the vector
// path forced off, so the kernel a host without AVX2 would run is
// proved on a host that has it: the same inputs, held to the same
// reference bytes as TestKernelsMatchReference holds the AVX2 kernel.
func TestCPUFeatureGate(t *testing.T) {
	if !useVec {
		t.Skip("no AVX2 here: every other test already ran the table kernel")
	}
	in, out := make([]byte, 100), make([]byte, 100)
	if n := mulAddVec(2, in, out); n != 96 {
		t.Fatalf("gate on: mulAddVec took %d of 100 bytes, want 96", n)
	}
	useVec = false
	defer func() { useVec = true }()
	if n := mulAddVec(2, in, out); n != 0 {
		t.Fatalf("gate off: the vector kernel still took %d bytes", n)
	}
	checkKernels(t)
}
