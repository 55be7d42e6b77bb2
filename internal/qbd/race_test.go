//go:build race

package qbd

// raceEnabled reports that the race detector instruments this test binary,
// which slows the dense solvers about eighteenfold; single-goroutine
// oracle comparisons at large s are left to the plain run.
const raceEnabled = true
