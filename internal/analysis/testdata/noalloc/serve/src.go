// Golden input for the noalloc analyzer, parsed as package
// repro/internal/serve: only the frame writer and the header encoder
// are held to the rule.
package serve

import "io"

type request struct{ name string }

// The encoder shape the rule protects: everything goes through the two
// suppressed raw appends onto the pooled buffer.
func put(b []byte, p ...byte) []byte {
	//repolint:ignore noalloc golden example: grows the pooled header buffer, which keeps its capacity
	return append(b, p...)
}

func (r *request) appendHeader(b []byte) []byte {
	b = put(b, 1)
	tmp := make([]byte, len(r.name)) // want "make in alloc-free hot path appendHeader"
	copy(tmp, r.name)
	return append(b, tmp...) // want "append in alloc-free hot path appendHeader"
}

func writeFrame(w io.Writer, r *request, payload []byte) error {
	frame := append(r.appendHeader(nil), payload...) // want "append in alloc-free hot path writeFrame"
	_, err := w.Write(frame)
	return err
}

// Outside the scope: decoding has to allocate what it returns.
func decodeNames(b []byte) []string {
	return append(make([]string, 0, 1), string(b))
}
