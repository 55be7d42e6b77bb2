// Package optimize provides the small numerical-optimisation toolkit used by
// the distribution-fitting procedures (paper §2): Nelder–Mead simplex
// minimisation and a damped Newton solver for nonlinear systems.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iteration exceeds its budget.
var ErrNoConvergence = errors.New("optimize: iteration did not converge")

// NelderMeadOptions configures the simplex minimiser. The zero value selects
// sensible defaults.
type NelderMeadOptions struct {
	// MaxIter bounds the number of simplex iterations (default 2000).
	MaxIter int
	// Tol is the convergence threshold on the simplex f-spread (default 1e-12).
	Tol float64
	// Step is the initial simplex edge relative to |x0[i]| (default 0.1, with
	// an absolute floor of 0.01 for zero coordinates).
	Step float64
}

// NelderMead minimises f starting from x0 using the Nelder–Mead downhill
// simplex. Returns the best point and its value. It is derivative-free,
// which suits the paper's brute-force hyperexponential rate search where the
// moment equations are too ill-conditioned for Newton iterations.
func NelderMead(f func([]float64) float64, x0 []float64, opts NelderMeadOptions) ([]float64, float64) {
	if opts.MaxIter == 0 {
		opts.MaxIter = 2000
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-12
	}
	if opts.Step == 0 {
		opts.Step = 0.1
	}
	n := len(x0)
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	// Build the initial simplex.
	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	for i := range pts {
		p := append([]float64(nil), x0...)
		if i > 0 {
			d := opts.Step * math.Abs(p[i-1])
			if d == 0 {
				d = 0.01
			}
			p[i-1] += d
		}
		pts[i] = p
		vals[i] = f(p)
	}
	order := func() {
		// Insertion sort by value: simplexes are tiny.
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
	}
	order()
	for it := 0; it < opts.MaxIter; it++ {
		if math.Abs(vals[n]-vals[0]) <= opts.Tol*(math.Abs(vals[0])+opts.Tol) {
			break
		}
		// Centroid of all but the worst.
		cen := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				cen[j] += pts[i][j]
			}
		}
		for j := range cen {
			cen[j] /= float64(n)
		}
		mix := func(t float64) []float64 {
			p := make([]float64, n)
			for j := range p {
				p[j] = cen[j] + t*(pts[n][j]-cen[j])
			}
			return p
		}
		xr := mix(-alpha)
		fr := f(xr)
		switch {
		case fr < vals[0]:
			xe := mix(-gamma)
			if fe := f(xe); fe < fr {
				pts[n], vals[n] = xe, fe
			} else {
				pts[n], vals[n] = xr, fr
			}
		case fr < vals[n-1]:
			pts[n], vals[n] = xr, fr
		default:
			xc := mix(rho)
			if fc := f(xc); fc < vals[n] {
				pts[n], vals[n] = xc, fc
			} else {
				// Shrink toward the best point.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					vals[i] = f(pts[i])
				}
			}
		}
		order()
	}
	return pts[0], vals[0]
}

// NewtonOptions configures the damped Newton solver. The zero value selects
// sensible defaults.
type NewtonOptions struct {
	// MaxIter bounds Newton steps (default 100).
	MaxIter int
	// Tol is the residual ∞-norm target (default 1e-10).
	Tol float64
	// FDStep is the relative finite-difference step (default 1e-7).
	FDStep float64
}

// Newton solves the nonlinear system f(x) = 0 by damped Newton iteration
// with a forward-difference Jacobian and halving line search. It returns
// ErrNoConvergence when the residual fails to reach Tol — the behaviour the
// paper reports for the 3-phase hyperexponential moment equations.
func Newton(f func([]float64) []float64, x0 []float64, opts NewtonOptions) ([]float64, error) {
	if opts.MaxIter == 0 {
		opts.MaxIter = 100
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-10
	}
	if opts.FDStep == 0 {
		opts.FDStep = 1e-7
	}
	n := len(x0)
	x := append([]float64(nil), x0...)
	fx := f(x)
	if len(fx) != n {
		return nil, fmt.Errorf("optimize: system returns %d residuals for %d unknowns", len(fx), n)
	}
	for it := 0; it < opts.MaxIter; it++ {
		if infNorm(fx) < opts.Tol {
			return x, nil
		}
		jac := numJacobian(f, x, fx, opts.FDStep)
		step, err := solveDense(jac, fx)
		if err != nil {
			return nil, fmt.Errorf("optimize: singular Jacobian at iteration %d: %w", it, err)
		}
		// Damped update: halve until the residual decreases (max 30 halvings).
		base := infNorm(fx)
		lambda := 1.0
		var nx []float64
		var nfx []float64
		improved := false
		for h := 0; h < 30; h++ {
			nx = make([]float64, n)
			for i := range nx {
				nx[i] = x[i] - lambda*step[i]
			}
			nfx = f(nx)
			if r := infNorm(nfx); r < base && !math.IsNaN(r) {
				improved = true
				break
			}
			lambda /= 2
		}
		if !improved {
			return x, ErrNoConvergence
		}
		x, fx = nx, nfx
	}
	if infNorm(fx) < opts.Tol {
		return x, nil
	}
	return x, ErrNoConvergence
}

func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func numJacobian(f func([]float64) []float64, x, fx []float64, rel float64) [][]float64 {
	n := len(x)
	jac := make([][]float64, n)
	for i := range jac {
		jac[i] = make([]float64, n)
	}
	xp := append([]float64(nil), x...)
	for j := 0; j < n; j++ {
		h := rel * (math.Abs(x[j]) + 1)
		xp[j] = x[j] + h
		fp := f(xp)
		xp[j] = x[j]
		for i := 0; i < n; i++ {
			jac[i][j] = (fp[i] - fx[i]) / h
		}
	}
	return jac
}

// solveDense solves the small dense system J·s = r with partial pivoting.
// Kept local to avoid a dependency cycle with internal/linalg.
func solveDense(jac [][]float64, r []float64) ([]float64, error) {
	n := len(r)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append(append([]float64(nil), jac[i]...), r[i])
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		if a[k][k] == 0 {
			return nil, errors.New("optimize: singular matrix")
		}
		for i := k + 1; i < n; i++ {
			m := a[i][k] / a[k][k]
			if m == 0 {
				continue
			}
			for j := k; j <= n; j++ {
				a[i][j] -= m * a[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}
