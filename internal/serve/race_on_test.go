//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of its Puts on purpose and allocation gates over pooled
// buffers do not hold.
const raceEnabled = true
