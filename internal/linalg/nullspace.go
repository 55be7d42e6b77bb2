package linalg

import (
	"math"
	"math/cmplx"
)

// ForcedNullVector returns a right null vector x (‖x‖∞ = 1) of a square
// matrix a known to be singular by construction (e.g. Q(z_k) at a computed
// eigenvalue, or a censored-chain generator), by Gaussian elimination with
// full pivoting. Elimination stops once the largest remaining entry falls
// to nullRankTol times the first pivot; when it reaches full numerical rank
// instead, the smallest — final — pivot is treated as zero. Full pivoting
// guarantees that pivot is the least significant one. a is left unchanged:
// ForcedNullVectorScratch runs on a copy with a fresh arena.
//
// The spectral-expansion solver relies on this policy, through
// ForcedNullVectorScratch, to recover the eigenvector for each root of
// det Q(z): Q(z_k) is singular by construction, so elimination leaves
// exactly one free column.
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

// CForcedNullVector is the complex analogue of ForcedNullVector.
func CForcedNullVector(a *CMatrix) ([]complex128, error) {
	var ar Arena
	return CForcedNullVectorScratch(a.Clone(), &ar)
}

// CForcedLeftNullVector returns a complex row vector u (‖u‖∞ = 1) with
// u·a ≈ 0, under ForcedNullVector's rank policy.
func CForcedLeftNullVector(a *CMatrix) ([]complex128, error) {
	var ar Arena
	return CForcedNullVectorScratch(a.T(), &ar)
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

func cswapCols(m *CMatrix, a, b int) {
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

func cnormalizeInf(x []complex128) {
	var mx float64
	idx := 0
	for i, v := range x {
		if a := cmplx.Abs(v); a > mx {
			mx, idx = a, i
		}
	}
	if mx == 0 {
		return
	}
	// Divide by the largest element itself so the result has a real, positive
	// pivot entry — keeps conjugate eigenvector pairs exactly conjugate.
	p := x[idx]
	for i := range x {
		x[i] /= p
	}
}
