//go:build race

package extent

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of its Puts on purpose and pooled state is reallocated.
const raceEnabled = true
