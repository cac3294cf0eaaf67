// Golden input for the deadexport analyzer, loaded as a module so that
// references from other packages count.
package lib

// TestOnly is called by this package's tests and nothing else.
func TestOnly() {} // want "exported func TestOnly has no caller outside its package's tests"

// T carries the methods.
type T struct{}

// TestOnlyMethod is called by this package's tests and nothing else.
func (T) TestOnlyMethod() {} // want "exported method TestOnlyMethod has no caller"

// Zero is referenced nowhere at all.
var Zero = 1 // want "exported var Zero has no caller"

// UsedByRootTest is called only by the module root's test.
func UsedByRootTest() {}

// UsedByCmd is called by a program.
func UsedByCmd() {}

// SelfUsed is over-exported: only this package calls it, which is
// still a caller, and unexporting it would save no line.
func SelfUsed() {}

func run() { SelfUsed(); Live() }

// Shape names Area, so every method called Area is live.
type Shape interface{ Area() float64 }

// Area is called through Shape only.
func (T) Area() float64 { return 0 }

// Kept waits for the caller a roadmap item promises.
//
//repolint:ignore deadexport ROADMAP 7: golden example of a name kept for a roadmap item
func Kept() {}

// Live was kept for a roadmap item whose caller has since landed, so
// the directive has outlived its reason.
//
//repolint:ignore deadexport ROADMAP 7: golden example of a stale directive // want "stale repolint:ignore deadexport"
func Live() {}
