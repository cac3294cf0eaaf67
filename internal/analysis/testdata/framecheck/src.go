// Golden input for the framecheck analyzer, parsed as package
// repro/internal/serve.
package serve

import (
	"encoding/binary"
	"io"
)

const maxPayloadBytes = 1 << 26

type header struct {
	Size int64
}

// Discarded wire-call results in every statement form.
func sloppyWrites(w interface {
	Write([]byte) (int, error)
	Flush() error
}, b []byte) {
	w.Write(b)        // want "discarded result of Write"
	defer w.Flush()   // want "discarded .defer. result of Flush"
	_, _ = w.Write(b) // want "error of Write assigned to _"
}

// An unchecked read followed by an attacker-sized allocation: the
// frame header says how big the payload is, and nothing validated it.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	io.ReadFull(r, hdr[:]) // want "discarded result of ReadFull"
	size := int64(binary.BigEndian.Uint64(hdr[:]))
	return make([]byte, size), nil // want "without a preceding bounds check"
}

// The blessed shape: error checked, size bounds-checked before it
// sizes an allocation. No findings.
func readFrameChecked(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := int64(binary.BigEndian.Uint64(hdr[:]))
	if size < 0 || size > maxPayloadBytes {
		return nil, io.ErrUnexpectedEOF
	}
	return make([]byte, size), nil
}

// The guard matcher unwraps integer conversions: a check on h.Size
// covers make([]byte, int(h.Size)).
func readBody(r io.Reader, h *header) ([]byte, error) {
	if h.Size < 0 || h.Size > maxPayloadBytes {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, int(h.Size))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Constant and data-derived sizes need no guard.
func scratch(prev []byte) ([]byte, []byte) {
	return make([]byte, 8), make([]byte, len(prev))
}

// A justified exception carries its reason in place.
func poolSeed(n int) []byte {
	//repolint:ignore framecheck golden example: n is an operator-supplied pool size, not a wire-decoded length
	return make([]byte, n)
}

// The binary header decoder: its error is the only sign of a malformed
// header, and a count it yields is attacker-chosen until compared —
// whatever the slice's element type.
type blockHeader struct{ Blocks []int64 }

func (h *blockHeader) decodeHeader(b []byte) error { return nil }

type decoder struct{ b []byte }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	d.b = d.b[n:]
	return v
}

func sloppyDecode(h *blockHeader, d *decoder, b []byte) []int64 {
	h.decodeHeader(b)              // want "discarded result of decodeHeader"
	_ = make([]int64, d.uvarint()) // want "sized by a decoded count"
	v, _ := binary.Uvarint(d.b)
	_ = make([]string, int(v)) // want "sized by a decoded count"
	n := int(d.uvarint())
	return make([]int64, n) // want "sized by a decoded count"
}

// The blessed shape: the count is held to the bytes that remain before
// it sizes anything; a helper that does so hands back a checked count.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		return 0
	}
	return int(n)
}

func carefulDecode(h *blockHeader, d *decoder, b []byte) ([]int64, error) {
	if err := h.decodeHeader(b); err != nil {
		return nil, err
	}
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		return nil, io.ErrUnexpectedEOF
	}
	return append(make([]int64, n), make([]int64, d.count())...), nil
}
