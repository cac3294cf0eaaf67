//go:build !race

package extent

const raceEnabled = false
