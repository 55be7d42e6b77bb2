package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// MGSolution is the stationary distribution computed by the matrix-geometric
// (R-matrix) method: v_{N+k} = v_N·R^k.
type MGSolution struct {
	boundary [][]float64 // v_0..v_{N−1}
	vN       []float64
	r        *linalg.Matrix
	imr      *linalg.Matrix // (I−R)⁻¹
	n        int
	s        int

	iterations int
}

// mgTol bounds the estimated entrywise distance from R to its limit. The
// fixed point contracts at a rate ρ ≈ z_s, so a step of size δ leaves
// about δ·ρ/(1−ρ) to go; ρ is estimated as the ratio of the last two
// steps. Near load 1 this needs many more steps than a bound on δ alone.
const mgTol = 1e-13

// mgMaxIter bounds the R-matrix iteration count.
const mgMaxIter = 200000

// SolveMatrixGeometric computes the stationary distribution by the
// matrix-geometric method of Neuts — the comparator of Mitrani & Chakka [6].
// R is the minimal non-negative solution of B + R·Q1 + R²·C = 0, obtained by
// the classical fixed point R ← −(B + R²C)·Q1⁻¹; the boundary reuses the
// same S_j elimination as the spectral solver, entirely in real arithmetic.
func SolveMatrixGeometric(p Params) (*MGSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckStable(); err != nil {
		return nil, err
	}
	s := p.Size()
	n := p.Threshold()
	a := p.EnvMatrix()
	da := a.RowSums()
	c := p.cTop()
	// Q1 = A − Dᴬ − λI − C.
	q1 := a.Clone()
	for i := 0; i < s; i++ {
		q1.Add(i, i, -(da[i] + p.Lambda + c[i]))
	}
	negQ1Inv, err := linalg.Inverse(q1.Scaled(-1))
	if err != nil {
		return nil, fmt.Errorf("qbd: Q1 is singular: %w", err)
	}
	cdiag := linalg.Diag(c)
	r := linalg.NewMatrix(s, s)
	iters := 0
	var prev float64 // the previous step; 0 until there is one
	for ; iters < mgMaxIter; iters++ {
		// R' = (B + R²C)·(−Q1)⁻¹ with B = λI.
		rr := r.Times(r).Times(cdiag)
		for i := 0; i < s; i++ {
			rr.Add(i, i, p.Lambda)
		}
		next := rr.Times(negQ1Inv)
		step := next.Minus(r).MaxAbs()
		r = next
		// Stop once the error left, about step·ρ/(1−ρ) with ρ estimated by
		// step/prev, is below mgTol; the first step has no estimate.
		if rho := step / prev; step == 0 || (rho < 1 && step*rho/(1-rho) < mgTol) {
			break
		}
		prev = step
	}
	if iters == mgMaxIter {
		return nil, errors.New("qbd: R-matrix iteration did not converge")
	}
	stages, err := boundaryStages(p, a, n)
	if err != nil {
		return nil, err
	}
	// Level-N balance: v_N(Dᴬ + B + C − A − λS_{N−1} − R·C) = 0.
	w := a.Scaled(-1)
	for i := 0; i < s; i++ {
		w.Add(i, i, da[i]+p.Lambda+c[i])
	}
	if n > 0 {
		w = w.Minus(stages[n-1].Scaled(p.Lambda))
	}
	w = w.Minus(r.Times(cdiag))
	vN, err := linalg.ForcedLeftNullVector(w)
	if err != nil {
		return nil, fmt.Errorf("qbd: level-N matching system: %w", err)
	}
	// Fix the overall sign so probabilities are non-negative.
	if vecSum(vN) < 0 {
		for i := range vN {
			vN[i] = -vN[i]
		}
	}
	boundary := foldBoundary(stages, vN)
	// Normalise with Σ_{j≥N} v_j = v_N·(I−R)⁻¹.
	imr, err := linalg.Inverse(linalg.Identity(s).Minus(r))
	if err != nil {
		return nil, fmt.Errorf("qbd: I−R is singular: %w", err)
	}
	total := vecSum(imr.VecTimes(vN))
	for _, lv := range boundary {
		total += vecSum(lv)
	}
	if total <= 0 {
		return nil, errors.New("qbd: non-positive total probability in matrix-geometric assembly")
	}
	for i := range vN {
		vN[i] /= total
	}
	for _, lv := range boundary {
		for i := range lv {
			lv[i] /= total
		}
	}
	return &MGSolution{
		boundary:   boundary,
		vN:         vN,
		r:          r,
		imr:        imr,
		n:          n,
		s:          s,
		iterations: iters + 1,
	}, nil
}

// Iterations reports how many fixed-point steps the R computation took.
func (m *MGSolution) Iterations() int { return m.iterations }

// R returns a copy of the rate matrix R.
func (m *MGSolution) R() *linalg.Matrix { return m.r.Clone() }

// Threshold returns N.
func (m *MGSolution) Threshold() int { return m.n }

// Level returns v_j.
func (m *MGSolution) Level(j int) []float64 {
	if j < 0 {
		return make([]float64, m.s)
	}
	if j < m.n {
		return append([]float64(nil), m.boundary[j]...)
	}
	v := append([]float64(nil), m.vN...)
	for k := m.n; k < j; k++ {
		v = m.r.VecTimes(v)
	}
	return v
}

// LevelProb returns P(j jobs present).
func (m *MGSolution) LevelProb(j int) float64 { return vecSum(m.Level(j)) }

// MeanQueue returns L using Σ_{k≥0}(N+k)R^k = N(I−R)⁻¹ + R(I−R)⁻².
func (m *MGSolution) MeanQueue() float64 {
	var l float64
	for j := 0; j < m.n; j++ {
		l += float64(j) * vecSum(m.boundary[j])
	}
	sum := m.imr.Scaled(float64(m.n)).Plus(m.r.Times(m.imr).Times(m.imr))
	l += vecSum(sum.VecTimes(m.vN))
	return l
}

// ModeMarginals returns Σ_j v_j.
func (m *MGSolution) ModeMarginals() []float64 {
	out := make([]float64, m.s)
	for j := 0; j < m.n; j++ {
		for i, v := range m.boundary[j] {
			out[i] += v
		}
	}
	for i, v := range m.imr.VecTimes(m.vN) {
		out[i] += v
	}
	return out
}

// TotalProbability returns Σ_j v_j·1.
func (m *MGSolution) TotalProbability() float64 { return vecSum(m.ModeMarginals()) }

// TailDecay returns the spectral radius of R (the geometric tail rate),
// estimated by power iteration.
func (m *MGSolution) TailDecay() float64 {
	v := make([]float64, m.s)
	for i := range v {
		v[i] = 1 / float64(m.s)
	}
	var rho float64
	for it := 0; it < 2000; it++ {
		nv := m.r.TimesVec(v)
		var norm float64
		for _, x := range nv {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range nv {
			nv[i] /= norm
		}
		if it > 5 && math.Abs(norm-rho) < 1e-14 {
			return norm
		}
		rho = norm
		v = nv
	}
	return rho
}
