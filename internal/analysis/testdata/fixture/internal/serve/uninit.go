// Fixture file: linkname is deliberately violated so CI can assert the
// analyzer still fires.
package serve

import "unsafe"

//go:linkname memclr runtime.memclrNoHeapPointers // linkname: a target other than runtime.mallocgc
func memclr(p unsafe.Pointer, n uintptr)
