package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorisation or solve meets an exactly
// singular (or numerically rank-deficient) matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorisation with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int // determinant sign of the permutation: +1 or −1
}

// FactorLU computes the LU factorisation of a square matrix a with partial
// (row) pivoting. The factorisation succeeds even when a is singular; Solve
// and Det report singularity at use time, so callers that only need the
// determinant sign of a near-singular matrix still get an answer.
func FactorLU(a *Matrix) *LU {
	a.square()
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		if pivot == 0 {
			continue // singular; leave zero column, detected on use
		}
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Data[i*n+j] -= m * lu.Data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}
}

// IsSingular reports whether the factored matrix has a zero pivot.
func (f *LU) IsSingular() bool {
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		if f.lu.At(i, i) == 0 {
			return true
		}
	}
	return false
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A·x = b for x.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, errors.New("linalg: rhs length mismatch")
	}
	if f.IsSingular() {
		return nil, ErrSingular
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.Data[i*n : i*n+i]
		for j, l := range row {
			s += l * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
	}
	return x, nil
}

// SolveMatrix solves A·X = B column by column.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	n := f.lu.Rows
	if b.Rows != n {
		return nil, errors.New("linalg: rhs row count mismatch")
	}
	out := NewMatrix(n, b.Cols)
	col := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		x, err := f.Solve(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}

// Inverse returns A⁻¹ for a square matrix a, or ErrSingular. a is left
// unchanged: InverseScratch inverts a copy in place.
func Inverse(a *Matrix) (*Matrix, error) {
	var ar Arena
	return InverseScratch(a.Clone(), &ar)
}

// Solve solves A·x = b with a fresh factorisation.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	return FactorLU(a).Solve(b)
}

// SolveTranspose solves xᵀ·A = bᵀ (a row-vector system) by factoring Aᵀ.
func SolveTranspose(a *Matrix, b []float64) ([]float64, error) {
	return FactorLU(a.T()).Solve(b)
}
