//go:build !linux

package crc

import "testing"

func checkInBounds(t *testing.T) { t.Skip("guard pages use mmap and mprotect: linux only") }
