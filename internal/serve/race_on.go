//go:build race

package serve

// raceEnabled reports a -race build. Tests skip allocation gates over
// pooled buffers there (sync.Pool drops a random quarter of its Puts on
// purpose), and the frame I/O stands in for an annotation the standard
// library lacks: see wireOrder.
const raceEnabled = true
