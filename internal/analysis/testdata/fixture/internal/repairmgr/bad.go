// Fixture package: clockinject and deadexport are deliberately violated
// so CI can assert the analyzers still fire.
package repairmgr

import "time"

type detector struct {
	lastSeen time.Time
}

func (d *detector) observe() {
	d.lastSeen = time.Now() // clockinject: wall clock outside withDefaults
}

// Unused is exported and nothing calls it.
func Unused() {} // deadexport: an export with no caller outside its package's tests
