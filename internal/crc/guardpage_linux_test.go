package crc

import (
	"hash/crc32"
	"syscall"
	"testing"
)

// checkInBounds puts each buffer flush against an unmapped page, before
// it and after it, so a kernel that reads one byte outside [0, len)
// dies with a fault instead of passing.
func checkInBounds(t *testing.T) {
	page := syscall.Getpagesize()
	// fenced returns a page of memory with an inaccessible page on each side.
	fenced := func() []byte {
		m, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Skipf("mmap: %v", err)
		}
		t.Cleanup(func() { _ = syscall.Munmap(m) }) // test memory; nothing to do if it fails
		for _, fence := range [][]byte{m[:page], m[2*page:]} {
			if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
				t.Skipf("mprotect: %v", err)
			}
		}
		return m[page : 2*page]
	}
	a, tab := fenced(), fenced()
	for i := range a {
		a[i] = byte(7*i + 3)
	}
	for _, n := range []int{1, 15, 16, 17, 255, 256, 257, 271, 1000, page - 1, page} {
		// Flush against the fence after, then against the fence before.
		for _, at := range []int{page - n, 0} {
			p := a[at : at+n]
			if got, want := Checksum(p), crc32.ChecksumIEEE(p); got != want {
				t.Fatalf("Checksum(len %d at page offset %d) = %08x, want %08x", n, at, got, want)
			}
			tl := 4 * ((n + ChunkSize - 1) / ChunkSize)
			for _, toff := range []int{page - tl, 0} {
				table := tab[toff : toff+tl]
				FillTable(table, p)
				if !VerifyTable(table, p) {
					t.Fatalf("VerifyTable refuses its own table (len %d)", n)
				}
			}
		}
	}
}
