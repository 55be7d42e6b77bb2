//go:build !race

package qbd

// raceEnabled reports that the race detector instruments this test binary.
const raceEnabled = false
