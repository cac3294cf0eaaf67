//go:build amd64 && !purego

package crc

import "testing"

// TestCPUFeatureGate walks the tiers, forcing each one live in turn, and
// runs under it the differential sweep, the guard-page bounds check and
// the allocation check, so every kernel a host could select is proved
// on a host that has them all. A tier this host cannot run is skipped,
// naming what it lacks; the generic tier (hash/crc32) runs everywhere.
func TestCPUFeatureGate(t *testing.T) {
	live := tier
	defer func() { tier = live }()
	for k := tierVPCLMUL; k >= tierGeneric; k-- {
		t.Run(tierNames[k], func(t *testing.T) {
			if missing := lacks(k); missing != "" {
				t.Skipf("no %s tier here: the CPU or OS lacks %s", tierNames[k], missing)
			}
			tier = k
			t.Run("reference", checkKernels)
			t.Run("inbounds", checkInBounds)
			t.Run("noalloc", checkNoAlloc)
		})
	}
}
