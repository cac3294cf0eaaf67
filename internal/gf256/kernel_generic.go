//go:build !amd64 || purego

package gf256

// No vector kernel on this build: the table kernel in gf256.go does all
// of the work.
const tier = tierTable

// mulAddVec reports how many leading bytes it handled: none.
func mulAddVec(c byte, in, out []byte) int { return 0 }

// mulAddChunkVec reports whether a vector kernel folded the chunk: no.
func mulAddChunkVec(coeffs []byte, inputs [][]byte, lo, hi int, dst []byte) bool { return false }
