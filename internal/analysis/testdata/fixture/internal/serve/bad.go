// Fixture package: framecheck is deliberately violated so CI can assert
// the analyzer still fires.
package serve

import (
	"encoding/binary"
	"io"
)

// Dial exists so the hdfs fixture has something to import upward.
func Dial() {}

type server struct{}

func (s *server) readFrame(r io.Reader) []byte {
	var hdr [8]byte
	io.ReadFull(r, hdr[:]) // framecheck: discarded wire-read result
	size := binary.BigEndian.Uint64(hdr[:])
	return make([]byte, int(size)) // framecheck: attacker-sized allocation, no bounds check
}

type header struct{ blocks []int64 }

func (h *header) decodeHeader(b []byte) error {
	n, _ := binary.Uvarint(b)
	h.blocks = make([]int64, n) // framecheck: a decoded count sizes the block table unchecked
	return nil
}

func (s *server) readHeader(h *header, b []byte) {
	h.decodeHeader(b) // framecheck: discarded header-decode error
}
