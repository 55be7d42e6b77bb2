package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/optimize"
)

// ApproxSolution is the geometric approximation of paper §3.2 (eq. 21):
// the queue length is geometric with parameter z_s and independent of the
// operational mode.
type ApproxSolution struct {
	z float64
	u []float64 // u_s normalised to sum 1
}

// DominantEigenvalue finds z_s, the largest real eigenvalue of Q(z) in
// (0, 1), by scanning the sign of det Q(z) downward from 1 and refining the
// first bracket by bisection. The determinant is evaluated in
// sign/log-magnitude form so large state spaces cannot overflow. A
// candidate root only counts as z_s if its eigenvector is non-negative
// (Perron property); when a coarse scan lands on a subdominant real root —
// possible when two real roots share a scan cell — the scan escalates to a
// finer grid, and ultimately to the full companion eigensolve.
func DominantEigenvalue(p Params) (float64, error) {
	z, _, err := dominantPair(p)
	return z, err
}

// dominantPair returns (z_s, u_s) with u_s normalised to sum 1 and clamped
// non-negative.
func dominantPair(p Params) (float64, []float64, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	if err := p.CheckStable(); err != nil {
		return 0, nil, err
	}
	// Coarse-to-fine scan: the dominant root is usually found by the coarse
	// pass, so the typical cost is ~64 LU factorisations plus the bisection.
	// Each LU is O(s³), which dominates the approximation's cost for large
	// N — the very regime the approximation exists for.
	for _, grid := range []int{64, 512, 4096} {
		z, ok := scanForRoot(p, grid)
		if !ok {
			continue
		}
		u, err := dominantVector(p, z, 1e-8)
		if err != nil {
			continue // mixed signs: subdominant root, refine the scan
		}
		return z, u, nil
	}
	// Fallback: full eigensolve, accepting the best real root.
	w, err := newWorker(p)
	if err != nil {
		return 0, nil, err
	}
	zs, err := w.unitDiskEigenvalues(p.Lambda)
	if err != nil {
		return 0, nil, fmt.Errorf("qbd: determinant scan found no dominant root and eigensolve failed: %w", err)
	}
	var best float64
	for _, z := range zs {
		if imag(z) == 0 && real(z) > best {
			best = real(z)
		}
	}
	if best == 0 {
		return 0, nil, errors.New("qbd: no real dominant eigenvalue found")
	}
	u, err := dominantVector(p, best, 1e-5)
	if err != nil {
		return 0, nil, err
	}
	return best, u, nil
}

// scanForRoot looks for the highest sign change of det Q(z) on a uniform
// grid below 1 and bisects it to machine precision.
func scanForRoot(p Params, grid int) (float64, bool) {
	sign := func(z float64) int {
		_, s := linalg.FactorLU(p.QofZ(z)).LogDet()
		return s
	}
	hi := 1 - 1e-9
	prevZ, prevSign := hi, sign(hi)
	for i := 1; i <= grid; i++ {
		z := hi * (1 - float64(i)/float64(grid))
		if z <= 0 {
			z = 1e-12
		}
		s := sign(z)
		if s != prevSign && s != 0 && prevSign != 0 {
			// Bisection on the determinant sign: the magnitude is useless for
			// interpolation (it spans hundreds of orders), but the sign is
			// exact, so ~50 halvings pin the root to machine precision.
			root, err := optimize.Bisect(func(x float64) float64 {
				return float64(sign(x))
			}, z, prevZ, 1e-14)
			if err == nil {
				return root, true
			}
		}
		if s == 0 {
			return z, true // landed exactly on the root
		}
		prevZ, prevSign = z, s
	}
	return 0, false
}

// dominantVector extracts the left null vector of Q(z), normalises it to
// sum 1, and rejects it when entries are negative beyond tol — the Perron
// check that distinguishes z_s from subdominant real roots.
func dominantVector(p Params, z, tol float64) ([]float64, error) {
	u, err := linalg.ForcedLeftNullVector(p.QofZ(z))
	if err != nil {
		return nil, fmt.Errorf("qbd: eigenvector at z = %v: %w", z, err)
	}
	total := vecSum(u)
	if total == 0 {
		return nil, errors.New("qbd: dominant eigenvector sums to zero")
	}
	for i := range u {
		u[i] /= total
	}
	for i, v := range u {
		if v < -tol {
			return nil, fmt.Errorf("qbd: eigenvector entry %d is %v at z = %v; subdominant root", i, v, z)
		}
		if v < 0 {
			u[i] = 0
		}
	}
	return u, nil
}

// SolveApprox computes the geometric approximation (paper §3.2): only the
// dominant eigenvalue z_s and its left eigenvector u_s are retained, giving
// v_j = u_s/(u_s·1)·(1−z_s)·z_s^j for every level j ≥ 0. The approximation
// is asymptotically exact in heavy traffic [Mitrani 2005] and needs one
// eigenvalue instead of s, which keeps it numerically robust where the
// exact method meets ill-conditioning (paper §4, N ≳ 24).
func SolveApprox(p Params) (*ApproxSolution, error) {
	z, u, err := dominantPair(p)
	if err != nil {
		return nil, err
	}
	return &ApproxSolution{z: z, u: u}, nil
}

// TailDecay returns z_s.
func (a *ApproxSolution) TailDecay() float64 { return a.z }

// Level returns v_j = u_s·(1−z_s)·z_s^j.
func (a *ApproxSolution) Level(j int) []float64 {
	out := make([]float64, len(a.u))
	if j < 0 {
		return out
	}
	f := (1 - a.z) * math.Pow(a.z, float64(j))
	for i, v := range a.u {
		out[i] = v * f
	}
	return out
}

// LevelProb returns P(j jobs) = (1−z_s)·z_s^j.
func (a *ApproxSolution) LevelProb(j int) float64 {
	if j < 0 {
		return 0
	}
	return (1 - a.z) * math.Pow(a.z, float64(j))
}

// MeanQueue returns L = z_s/(1−z_s), the geometric mean.
func (a *ApproxSolution) MeanQueue() float64 { return a.z / (1 - a.z) }

// ModeMarginals returns u_s/(u_s·1): under the approximation the mode is
// independent of the queue length.
func (a *ApproxSolution) ModeMarginals() []float64 {
	return append([]float64(nil), a.u...)
}

// TotalProbability always returns 1 for the geometric form.
func (a *ApproxSolution) TotalProbability() float64 { return 1 }
