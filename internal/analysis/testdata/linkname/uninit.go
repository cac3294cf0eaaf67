// Golden input for the linkname analyzer, parsed as package
// repro/internal/serve: the allowed file.
package serve

import "unsafe"

// The one allowed linkname.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// Another target in the same file is not.
//
//go:linkname memclr runtime.memclrNoHeapPointers // want "target \"runtime.memclrNoHeapPointers\": the only one allowed is runtime.mallocgc"
func memclr(p unsafe.Pointer, n uintptr)

// Nor is the one-argument form, which pushes a symbol out.
//
//go:linkname pushed // want "target \"\": the only one allowed is runtime.mallocgc"
func pushed() {}
