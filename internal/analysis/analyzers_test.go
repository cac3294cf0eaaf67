package analysis

import "testing"

// Each analyzer is pinned by a golden testdata package parsed under
// the import path the rule targets; see golden_test.go for the
// `// want "regexp"` diff harness.

func TestLockDisciplineGolden(t *testing.T) {
	runGolden(t, LockDiscipline(), "testdata/lockdiscipline", "repro/internal/hdfs")
}

// The block cache carries its own lock-confinement rule (shard-mutex
// operations only inside shard methods, no decode under a shard lock),
// pinned by a separate golden tree parsed under the cache import path.
func TestLockDisciplineCacheGolden(t *testing.T) {
	runGolden(t, LockDiscipline(), "testdata/lockdiscipline/cache", "repro/internal/cache")
}

func TestLayeringGolden(t *testing.T) {
	runGolden(t, Layering(), "testdata/layering", "repro/internal/sim")
}

func TestLayeringUnrankedGolden(t *testing.T) {
	runGolden(t, Layering(), "testdata/layering/unranked", "repro/internal/scratchpad")
}

func TestLayeringRootGolden(t *testing.T) {
	runGolden(t, Layering(), "testdata/layering/root", "repro")
}

func TestClockInjectGolden(t *testing.T) {
	runGolden(t, ClockInject(), "testdata/clockinject", "repro/internal/repairmgr")
}

func TestFrameCheckGolden(t *testing.T) {
	runGolden(t, FrameCheck(), "testdata/framecheck", "repro/internal/serve")
}

// The telemetry package carries trace headers over the same frames and
// marshals registry state in its debug handlers, so framecheck targets
// it too: the identical golden sources must fire under its import path.
func TestFrameCheckTelemetryGolden(t *testing.T) {
	runGolden(t, FrameCheck(), "testdata/framecheck", "repro/internal/telemetry")
}

// The extent store parses length-prefixed record headers read back
// from disk — the same attacker-shaped input as a wire frame — so
// framecheck targets it too: the identical golden sources must fire
// under its import path.
func TestFrameCheckExtentGolden(t *testing.T) {
	runGolden(t, FrameCheck(), "testdata/framecheck", "repro/internal/extent")
}

func TestNoAllocGolden(t *testing.T) {
	runGolden(t, NoAlloc(), "testdata/noalloc", "repro/internal/gf256")
}

// In the serve package only the frame writer and the header encoder are
// in scope: the golden has both a flagged encoder and an allocating
// decoder the rule leaves alone.
func TestNoAllocServeGolden(t *testing.T) {
	runGolden(t, NoAlloc(), "testdata/noalloc/serve", "repro/internal/serve")
}

// deadexport spans packages, so its golden is a module of its own:
// test-only code flagged, callers in cmd/ and the root's tests honoured,
// internal/testutil exempt, suppressions kept and stale.
func TestDeadExportGolden(t *testing.T) {
	runModuleGolden(t, DeadExport(), "testdata/deadexport")
}

// A package parsed on its own has no module to find callers in, so
// deadexport stays silent rather than flag everything.
func TestDeadExportNeedsTheModule(t *testing.T) {
	pkg := parseTestdata(t, "testdata/deadexport/internal/lib", "mini/internal/lib")
	if diags := DeadExport().Check(pkg); len(diags) != 0 {
		t.Errorf("deadexport fired %d finding(s) without a module: %v", len(diags), diags[0])
	}
}

// The analyzers a golden dir exercises must not fire on packages
// outside their target path: the same sources parsed under a neutral
// import path produce nothing.
func TestAnalyzersScopedToTargetPackages(t *testing.T) {
	for _, tc := range []struct {
		az  Analyzer
		dir string
	}{
		{LockDiscipline(), "testdata/lockdiscipline"},
		{LockDiscipline(), "testdata/lockdiscipline/cache"},
		{ClockInject(), "testdata/clockinject"},
		{FrameCheck(), "testdata/framecheck"},
		{NoAlloc(), "testdata/noalloc"},
		{NoAlloc(), "testdata/noalloc/serve"},
	} {
		pkg := parseTestdata(t, tc.dir, "example.com/elsewhere")
		if diags := tc.az.Check(pkg); len(diags) != 0 {
			t.Errorf("%s fired %d finding(s) outside its target package: %v", tc.az.Name(), len(diags), diags[0])
		}
	}
}

// All returns every analyzer exactly once under a unique name — the
// driver's -expect-all accounting depends on it.
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name()] {
			t.Errorf("duplicate analyzer name %q", a.Name())
		}
		seen[a.Name()] = true
		if a.Name() == metaAnalyzer {
			t.Errorf("analyzer name %q collides with the suppression meta-analyzer", a.Name())
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has no doc line", a.Name())
		}
	}
	if len(seen) < 6 {
		t.Errorf("expected at least 6 analyzers, got %d", len(seen))
	}
}
