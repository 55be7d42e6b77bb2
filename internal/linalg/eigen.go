package linalg

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned when the QR iteration fails to converge.
var ErrNoConvergence = errors.New("linalg: QR eigenvalue iteration did not converge")

// Eigenvalues returns all eigenvalues of a square real matrix, in no
// particular order, computed by balancing, Householder reduction to upper
// Hessenberg form and the Francis implicit double-shift QR algorithm.
// Only eigenvalues are computed (eigenvectors for the spectral-expansion
// method are recovered separately as null vectors of Q(z_k), which is better
// conditioned than accumulating QR transforms). a is left unchanged:
// EigenvaluesScratch runs on a copy with a fresh arena.
func Eigenvalues(a *Matrix) ([]complex128, error) {
	var ar Arena
	return EigenvaluesScratch(a.Clone(), &ar)
}

// balance applies the Parlett–Reinsch diagonal similarity scaling in place,
// reducing the norm of the matrix and improving eigenvalue accuracy.
func balance(a *Matrix) {
	const radix = 2.0
	n := a.Rows
	d := a.Data
	sqrdx := radix * radix
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			var r, c float64
			row := d[i*n : i*n+n]
			for j, v := range row {
				if j != i {
					c += math.Abs(d[j*n+i])
					r += math.Abs(v)
				}
			}
			if c == 0 || r == 0 {
				continue
			}
			g := r / radix
			f := 1.0
			s := c + r
			for c < g {
				f *= radix
				c *= sqrdx
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= sqrdx
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				for j := range row {
					row[j] *= g
				}
				for j := 0; j < n; j++ {
					d[j*n+i] *= f
				}
			}
		}
	}
}
