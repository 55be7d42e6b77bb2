//go:build !amd64

package linalg

// hasAVX2FMA is false off amd64: the kernels always run their portable
// loops.
func hasAVX2FMA() bool { return false }

// The AVX2 kernels exist only on amd64; useFMA is never set elsewhere.

func axpyFMA(a float64, x, y []float64) {
	panic("linalg: the AVX2/FMA axpy kernel exists only on amd64")
}

func axpyRowsFMA(a, x []float64, stride int, y []float64) {
	panic("linalg: the AVX2/FMA row kernel exists only on amd64")
}

func subTrackAVX(m float64, x, y []float64) (float64, int) {
	panic("linalg: the AVX2 eliminate-and-track kernel exists only on amd64")
}
