//go:build !amd64

package linalg

// hasAVX2FMA is false off amd64: Axpy always runs the portable loop.
func hasAVX2FMA() bool { return false }

// axpyFMA exists only on amd64; useFMA is never set elsewhere.
func axpyFMA(a float64, x, y []float64) {
	panic("linalg: the AVX2/FMA axpy kernel exists only on amd64")
}
