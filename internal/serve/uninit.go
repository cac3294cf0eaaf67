package serve

import "unsafe"

// mallocgc is the runtime's allocator. runtime/malloc.go keeps the
// symbol open to linkname on purpose and asks that its signature never
// change; typ is a *runtime._type, and nil allocates memory the garbage
// collector never scans.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// uninitBytes returns a new slice of n bytes that are not zeroed: they
// hold whatever the memory held before, so the caller must write every
// byte before any of it is read, lent, cached or returned. make zeroes
// its result, and a buffer that is then overwritten in full pays for
// writing each byte twice. The memory is noscan, as make([]byte, n)'s
// is. This is the module's only linkname (repolint's linkname check).
func uninitBytes(n int) []byte {
	if n < 0 {
		panic("serve: uninitBytes: negative length")
	}
	return unsafe.Slice((*byte)(mallocgc(uintptr(n), nil, false)), n)
}
