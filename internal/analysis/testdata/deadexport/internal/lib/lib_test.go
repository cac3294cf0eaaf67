package lib

import "testing"

// The package's own tests are not callers.
func TestLib(t *testing.T) {
	TestOnly()
	T{}.TestOnlyMethod()
}
