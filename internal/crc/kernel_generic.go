//go:build !amd64 || purego

package crc

// No vector kernel on this build: hash/crc32 does all of the work.
const tier = tierGeneric

func update(crc uint32, p []byte) uint32 { return generic(crc, p) }
