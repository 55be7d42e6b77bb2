package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// SolveSpectralDense is the textbook assembly of the spectral-expansion
// boundary problem: the balance equations for levels 0..N and the
// normalisation condition are stacked into one dense complex linear system
// of size (N+1)s in the unknowns (v_0, ..., v_{N−1}, γ̃), exactly as
// described under eq. (19)–(20) of the paper ("a set of (N+1)s linear
// equations with Ns unknown probabilities plus the s constants γ_k").
//
// It exists as an ablation baseline for the O(N·s³) staged elimination used
// by SolveSpectral: the two must agree to machine precision, and the
// benchmark suite measures the O((Ns)³) cost this formulation pays. It
// shares only the eigen steps (z_k, u_k) with SolveSpectral, taken from a
// SweepWorker, and solves the boundary and γ̃ independently of the staged
// elimination it checks.
func SolveSpectralDense(p Params) (*SpectralSolution, error) {
	w, err := newWorker(p)
	if err != nil {
		return nil, err
	}
	if err := p.CheckStable(); err != nil {
		return nil, err
	}
	s := p.Size()
	n := p.Threshold()
	sol := new(SpectralSolution)
	sol.reshape(n, s)
	zs, err := w.unitDiskEigenvalues(p.Lambda)
	if err != nil {
		return nil, err
	}
	if err := w.eigenvectorTerms(p.Lambda, zs, sol); err != nil {
		return nil, err
	}
	terms := sol.terms
	da := p.dA()
	dim := (n + 1) * s
	// Unknown vector x = (v_0, ..., v_{N−1}, γ̃) of length (N+1)s. Row-vector
	// equations x·M = rhs are assembled transposed: M is dim×dim with
	// column blocks = equations.
	m := linalg.NewCMatrix(dim, dim)
	rhs := make([]complex128, dim)

	// vblock(j) returns, for each unknown index u, the coefficient of
	// unknown u in the expression for v_j[i]; for j < N the level vectors
	// are unknowns themselves, for j ≥ N they expand through the terms.
	// We exploit that equations are linear in v_{j−1}, v_j, v_{j+1}.
	// Equation block for level j occupies columns j·s .. j·s+s−1.
	addCoef := func(row, col int, v complex128) { m.Add(row, col, v) }

	// addLevelTimes adds coef·(v_l · Mat) to equation block eq, where Mat is
	// a real s×s matrix expressed elementwise through matFn(i, col).
	// v_l[i] is either unknown (l < n) or Σ_k γ̃_k z_k^{l−n} u_k[i].
	addLevel := func(eq int, l int, matFn func(i, c int) float64) {
		if l < 0 {
			return
		}
		for c := 0; c < s; c++ {
			col := eq*s + c
			if l < n {
				for i := 0; i < s; i++ {
					if v := matFn(i, c); v != 0 {
						addCoef(l*s+i, col, complex(v, 0))
					}
				}
				continue
			}
			for k, t := range terms {
				zp := cpow(t.z, l-n)
				for i := 0; i < s; i++ {
					if v := matFn(i, c); v != 0 {
						addCoef(n*s+k, col, zp*t.u[i]*complex(v, 0))
					}
				}
			}
		}
	}

	cLevel := func(j int) []float64 { return p.serviceAt(j) }
	// Balance at level j (eq. 14), for j = 0..N−1 (we drop one equation of
	// the level-N block for the normalisation, since the system is singular):
	// v_j(Dᴬ + B + C_j − A) − v_{j−1}B − v_{j+1}C_{j+1} = 0.
	for j := 0; j <= n; j++ {
		jj := j
		addLevel(j, j, func(i, c int) float64 {
			v := -p.A.At(i, c)
			if i == c {
				v += da[i] + p.Lambda + cLevel(jj)[i]
			}
			return v
		})
		addLevel(j, j-1, func(i, c int) float64 {
			if i == c {
				return -p.Lambda
			}
			return 0
		})
		addLevel(j, j+1, func(i, c int) float64 {
			if i == c {
				return -cLevel(jj + 1)[i]
			}
			return 0
		})
	}
	// Replace the last column (one redundant level-N equation) with the
	// normalisation condition Σ_{j<N} v_j·1 + Σ_k γ̃_k(u_k·1)/(1−z_k) = 1.
	normCol := dim - 1
	for row := 0; row < dim; row++ {
		m.Set(row, normCol, 0)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < s; i++ {
			m.Set(j*s+i, normCol, 1)
		}
	}
	for k, t := range terms {
		m.Set(n*s+k, normCol, cvecSum(t.u)/(1-t.z))
	}
	rhs[normCol] = 1

	// Solve xᵀ·M = rhsᵀ  ⇔  Mᵀ x = rhs.
	x, err := linalg.FactorCLU(m.T()).Solve(rhs)
	if err != nil {
		return nil, fmt.Errorf("qbd: dense boundary system: %w", err)
	}
	var maxImag float64
	for j, row := range sol.boundary {
		for i := range row {
			v := x[j*s+i]
			row[i] = real(v)
			if im := math.Abs(imag(v)); im > maxImag {
				maxImag = im
			}
		}
	}
	for k := range sol.terms {
		sol.terms[k].gamma = x[n*s+k]
	}
	if maxImag > 1e-6 {
		return nil, errors.New("qbd: dense boundary produced complex probabilities")
	}
	return sol, nil
}

// cpow computes z^k for small non-negative integer k.
func cpow(z complex128, k int) complex128 {
	out := complex(1, 0)
	for i := 0; i < k; i++ {
		out *= z
	}
	return out
}
