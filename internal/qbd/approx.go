package qbd

import "math"

// ApproxSolution is the geometric approximation of paper §3.2 (eq. 21):
// the queue length is geometric with parameter z_s and independent of the
// operational mode.
type ApproxSolution struct {
	z float64
	u []float64 // u_s normalised to sum 1
}

// SolveApprox computes the geometric approximation (paper §3.2): only the
// dominant eigenvalue z_s and its left eigenvector u_s are retained, giving
// v_j = u_s/(u_s·1)·(1−z_s)·z_s^j for every level j ≥ 0. The approximation
// is asymptotically exact in heavy traffic [Mitrani 2005] and needs one
// eigenvalue instead of s, which keeps it numerically robust where the
// exact method meets ill-conditioning (paper §4, N ≳ 24).
//
// z_s is the root in (0, 1) of the entered Perron multiset's scalar
// equation λ(1−z) + z·N·θ_P(z) = 0, θ_P being the largest eigen-branch of
// one server's matrix M(z) (factored.go) that is not a transient phase's:
// every other multiset without a transient server has a smaller sum of
// branches, so its root is smaller too, and a multiset with one carries no
// probability. u_s is that multiset's closed-form vector, the N-th lumped
// power of one server's Perron vector, normalised to sum 1. It hoists only
// the factored stage and runs the spectral solver's code for that multiset,
// so without zero-weight phases it agrees with SolveSpectral's TailDecay
// bit for bit; it reports SolveSpectral's errors in its order.
func SolveApprox(p Params) (*ApproxSolution, error) {
	ms, err := p.validateEnv()
	if err != nil {
		return nil, err
	}
	f, err := newFactored(p.Servers, ms)
	if err != nil {
		return nil, err
	}
	if err := f.checkPoint(p.Lambda); err != nil {
		return nil, err
	}
	var fw factoredWork
	fw.init(f, len(ms.modes))
	z, err := fw.multisetRoot(f, p.Lambda, enteredPerron)
	if err != nil {
		return nil, err
	}
	fw.branches(f, z)
	u := make([]float64, len(ms.modes))
	fw.vector(f, enteredPerron, u)
	total := vecSum(u)
	for i := range u {
		u[i] /= total
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
