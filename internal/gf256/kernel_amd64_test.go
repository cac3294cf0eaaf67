//go:build amd64 && !purego

package gf256

import "testing"

// TestCPUFeatureGate walks down the tiers, forcing each one live in turn,
// and runs under it the differential sweep, the guard-page bounds check
// and the allocation check: the same inputs held to the same reference
// bytes, so every kernel a host could select is proved on a host that
// has them all. A tier this host cannot run is skipped, naming what it
// lacks; the table tier runs everywhere.
func TestCPUFeatureGate(t *testing.T) {
	live := tier
	defer func() { tier = live }()
	for k := tierGFNI; k >= tierTable; k-- {
		t.Run(tierNames[k], func(t *testing.T) {
			if k > tierTable {
				if missing := lacks(k); missing != "" {
					t.Skipf("no %s tier here: the CPU or OS lacks %s", tierNames[k], missing)
				}
			}
			tier = k
			in, out := make([]byte, 100), make([]byte, 100)
			if n, want := mulAddVec(2, in, out), [...]int{tierTable: 0, tierAVX2: 96, tierGFNI: 64}[k]; n != want {
				t.Fatalf("mulAddVec took %d of 100 bytes, want %d", n, want)
			}
			t.Run("reference", checkKernels)
			t.Run("inbounds", checkInBounds)
			t.Run("noalloc", checkNoAlloc)
		})
	}
}
