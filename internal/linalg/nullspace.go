package linalg

import "math"

// ForcedNullVector returns a right null vector x (‖x‖∞ = 1) of a square
// matrix a known to be singular by construction (e.g. Q(z_k) at a computed
// eigenvalue, or a censored-chain generator), by Gaussian elimination with
// full pivoting. Elimination always runs to rank n−1 and the last —
// smallest — pivot is treated as zero; it stops early only when the
// remaining block is exactly zero. Full pivoting guarantees that pivot is
// the least significant one. No relative cut-off ends it sooner: a system
// whose pivots span dozens of orders of magnitude, such as the spectral
// solver's boundary matching system at large N, keeps every one of them.
// a is left unchanged: ForcedNullVectorScratch runs on a copy with a fresh
// arena.
func ForcedNullVector(a *Matrix) ([]float64, error) {
	var ar Arena
	return ForcedNullVectorScratch(a.Clone(), &ar)
}

// ForcedLeftNullVector returns a row vector u (‖u‖∞ = 1) with u·a ≈ 0,
// under ForcedNullVector's rank policy.
func ForcedLeftNullVector(a *Matrix) ([]float64, error) {
	var ar Arena
	return ForcedNullVectorScratch(a.T(), &ar)
}

func swapCols(m *Matrix, a, b int) {
	if a == b {
		return
	}
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		m.Data[i*n+a], m.Data[i*n+b] = m.Data[i*n+b], m.Data[i*n+a]
	}
}

func normalizeInf(x []float64) {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return
	}
	for i := range x {
		x[i] /= mx
	}
}
