package serve

import "unsafe"

// runtime.mallocgc itself, from any other file, is a finding.
//
//go:linkname alloc runtime.mallocgc // want "//go:linkname outside repro/internal/serve/uninit.go"
func alloc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer
