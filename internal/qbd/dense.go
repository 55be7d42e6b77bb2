package qbd

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/linalg"
)

// SolveSpectralDense is the textbook assembly of the spectral-expansion
// boundary problem: the balance equations for levels 0..N and the
// normalisation condition are stacked into one dense complex linear system
// of size (N+1)s in the unknowns (v_0, ..., v_{N−1}, γ̃), exactly as
// described under eq. (19)–(20) of the paper ("a set of (N+1)s linear
// equations with Ns unknown probabilities plus the s constants γ_k").
//
// It exists as an oracle and ablation baseline for SolveSpectral: the two
// must agree to machine precision, and the benchmark suite measures the
// O((Ns)³) cost this formulation pays. It shares no eigen or boundary code
// with the solve it checks: its eigen stage is the companion eigensolve
// with a null vector of Q(z_k) per root (companionTerms), so it needs no
// server description and takes any environment, conjugate pairs of roots
// included, and its boundary and γ̃ come from the dense system instead of
// the staged elimination.
func SolveSpectralDense(p Params) (*SpectralSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckStable(); err != nil {
		return nil, err
	}
	s := p.Size()
	n := p.Threshold()
	sol := new(SpectralSolution)
	sol.reshape(n, s)
	if err := companionTerms(p, sol); err != nil {
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

// companionTerms writes the s roots of det Q(z) inside the unit disk,
// dominant first, with their left null vectors into sol.terms, which
// sol.reshape has sized. Q(z)ᵀx = 0 ⇔ (Q0ᵀw² + Q1ᵀw + Q2ᵀ)x = 0 in
// w = 1/z, and Q0 = λI is always invertible (Q2 = C is singular whenever a
// mode has no operative server, so the usual companion form in z would
// fail), so the roots are the reciprocals of the s largest eigenvalues of
// the 2s×2s companion [[0, I], [−Q2ᵀ/λ, −Q1ᵀ/λ]]; the next one down is the
// unit root w = 1. Each left vector u_k is the right null vector of
// Q(z_k)ᵀ, by full-pivot elimination, and a conjugate pair of roots gets
// conjugate vectors.
func companionTerms(p Params, sol *SpectralSolution) error {
	s := p.Size()
	lambda := p.Lambda
	da, c, aT := p.dA(), p.cTop(), p.A.T() // aT[i][j] = A[j][i]
	var ar linalg.Arena
	n2 := 2 * s
	cm := ar.Mat(n2, n2)
	for i := 0; i < s; i++ {
		cm.Data[i*n2+s+i] = 1
	}
	for i := 0; i < s; i++ {
		// −Q2ᵀ/λ block: Q2 = diag(c).
		cm.Data[(s+i)*n2+i] = -c[i] / lambda
		// −Q1ᵀ/λ block: Q1 = A − Dᴬ − λI − C.
		at := aT.Data[i*s : (i+1)*s]
		row := cm.Data[(s+i)*n2+s : (s+i)*n2+n2]
		for j := 0; j < s; j++ {
			v := at[j]
			if i == j {
				v -= da[i] + lambda + c[i]
			}
			row[j] = -v / lambda
		}
	}
	ws, err := linalg.EigenvaluesScratch(cm, &ar)
	if err != nil {
		return fmt.Errorf("qbd: companion eigenvalues: %w", err)
	}
	sortModulusDesc(ws)
	if len(ws) < s+1 {
		return fmt.Errorf("%w: companion produced %d eigenvalues", ErrEigenCount, len(ws))
	}
	if in := cmplx.Abs(ws[s-1]); in <= 1 {
		return fmt.Errorf("%w: only %d strictly outside the unit circle (|w_s| = %v)", ErrEigenCount, countAbove(ws, 1), in)
	}
	if out := cmplx.Abs(ws[s]); out > 1+1e-6 {
		return fmt.Errorf("%w: at least %d outside the unit circle (|w_{s+1}| = %v)", ErrEigenCount, countAbove(ws, 1), out)
	}
	zs := ws[:s]
	for k := range zs {
		zs[k] = 1 / zs[k]
		// Clean tiny imaginary parts so real roots are treated as real; the
		// rest must then come in adjacent conjugate pairs.
		if math.Abs(imag(zs[k])) < 1e-9*(1+math.Abs(real(zs[k]))) {
			zs[k] = complex(real(zs[k]), 0)
		}
	}
	sortModulusDesc(zs)
	cqt := ar.CMatUninit(s, s)
	for k := 0; k < s; k++ {
		z := zs[k]
		switch {
		case imag(z) == 0:
			u, err := linalg.ForcedLeftNullVector(p.QofZ(real(z)))
			if err != nil {
				return fmt.Errorf("qbd: eigenvector for z = %v: %w", z, err)
			}
			sol.terms[k].z = z
			for i, v := range u {
				sol.terms[k].u[i] = complex(v, 0)
			}
		case imag(z) > 0 && k+1 < s && zs[k+1] == cmplx.Conj(z):
			lam := complex(lambda, 0)
			for i := 0; i < s; i++ {
				row := cqt.Data[i*s : (i+1)*s]
				for j, v := range aT.Data[i*s : (i+1)*s] {
					row[j] = z * complex(v, 0)
				}
				ci, di := complex(c[i], 0), complex(da[i], 0)
				row[i] += lam - z*(di+lam+ci) + z*z*ci
			}
			u, err := linalg.CForcedNullVectorScratch(cqt, &ar)
			if err != nil {
				return fmt.Errorf("qbd: eigenvector for z = %v: %w", z, err)
			}
			sol.terms[k].z, sol.terms[k+1].z = z, zs[k+1]
			copy(sol.terms[k].u, u)
			for i, v := range u {
				sol.terms[k+1].u[i] = cmplx.Conj(v)
			}
			k++
		default:
			return fmt.Errorf("qbd: unpaired complex eigenvalue %v", z)
		}
	}
	return nil
}

// sortModulusDesc orders eigenvalues by descending modulus, breaking ties
// by real part, then imaginary part, both descending, so conjugate pairs
// sit adjacently with the +imag member first. Because the comparator is a
// total order on values, the sorted sequence is unique: the roots picked
// as the s inside the unit disk, and their order, depend only on the
// eigenvalue set, never on the order QR found them in, even when moduli
// tie at the unit-disk boundary. slices.SortFunc is also allocation-free,
// which the worker's zero-allocation invariant relies on.
func sortModulusDesc(ws []complex128) {
	slices.SortFunc(ws, func(a, b complex128) int {
		aa, ab := cmplx.Abs(a), cmplx.Abs(b)
		switch {
		case aa > ab:
			return -1
		case aa < ab:
			return 1
		}
		switch {
		case real(a) > real(b):
			return -1
		case real(a) < real(b):
			return 1
		}
		switch {
		case imag(a) > imag(b):
			return -1
		case imag(a) < imag(b):
			return 1
		}
		return 0
	})
}

func countAbove(ws []complex128, r float64) int {
	n := 0
	for _, w := range ws {
		if cmplx.Abs(w) > r {
			n++
		}
	}
	return n
}
