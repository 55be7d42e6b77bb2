package qbd

import (
	"errors"
	"math"
)

// ErrEigenCount is returned when the number of eigenvalues found strictly
// inside the unit disk differs from the environment size s; under the
// ergodicity condition spectral-expansion theory guarantees exactly s.
var ErrEigenCount = errors.New("qbd: wrong number of eigenvalues inside the unit disk")

// spectralTerm is one term γ_k·u_k·z_k^j of the expansion (eq. 19), stored
// with the rescaled coefficient γ̃_k = γ_k·z_k^N so that levels are computed
// as v_j = Σ_k γ̃_k·z_k^{j−N}·u_k without underflowing z^N. The assembly
// solves for γ'_k = γ̃_k/z_k, the level-(N−1) scaling, and stores
// γ̃_k = γ'_k·z_k. Every root is real, and so are u_k and γ̃_k.
type spectralTerm struct {
	z     float64
	u     []float64
	gamma float64 // γ̃_k = γ_k·z_k^N
	// transient marks a root whose multiset puts a server on a transient
	// phase's branch. Such a mode carries no probability, so its γ̃ is 0
	// and its root is no decay rate of the queue.
	transient bool
}

// SpectralSolution is the exact stationary distribution produced by
// SolveSpectral.
type SpectralSolution struct {
	boundary [][]float64 // v_0..v_{N−1}
	terms    []spectralTerm
	n        int // threshold N
	s        int
}

// SolveSpectral computes the exact stationary distribution by the method of
// spectral expansion (paper §3.1):
//
//  1. The s eigenvalues z_k of Q(z) = Q0 + Q1·z + Q2·z² inside the unit
//     disk. Params.Servers describes the environment as identical servers,
//     so each is the one root in (0, 1) of a scalar equation
//     λ(1−z) + z·Σ_i m_i·θ_i(z) = 0, one per multiset m of one server's
//     real eigen-branches θ_i (factored.go), a phase of zero weight
//     contributing the branch of a transient phase.
//  2. Each left eigenvector u_k, the closed-form product of one server's
//     left eigenvectors u[n] = [tⁿ] Π_i (y_i·t)^{m_i}.
//  3. The expansion already holds at level N−1, since the level-N balance
//     equation has the repeating coefficients and λI is invertible. The
//     boundary levels below it are eliminated by the S_j recursion
//     (v_j = v_{j+1}·S_j, S_0..S_{N−2}), and the level-(N−1) balance
//     equation becomes an s×s real singular system for the coefficients,
//     closed by the normalisation condition (eq. 20).
//
// It is a sweep of one point: p is validated, its environment hoisted by
// NewSweepSolver, and p.Lambda solved on the new solver's first worker, so
// a one-off solve and every point of a batched sweep run the same code.
func SolveSpectral(p Params) (*SpectralSolution, error) {
	sv, err := NewSweepSolver(p)
	if err != nil {
		return nil, err
	}
	return sv.Solve(p.Lambda)
}

// Threshold returns N, the first level at which the expansion applies.
func (s *SpectralSolution) Threshold() int { return s.n }

// Eigenvalues returns the z_k of the expansion, dominant first.
func (s *SpectralSolution) Eigenvalues() []float64 {
	zs := make([]float64, len(s.terms))
	for i, t := range s.terms {
		zs[i] = t.z
	}
	return zs
}

// TailDecay returns the dominant eigenvalue z_s — the asymptotic geometric
// decay rate of the queue-length distribution. It is always real and
// positive (paper §3.2). A root whose multiset puts a server on a
// transient phase's branch is passed over: its coefficient is 0, so it
// decays nothing, though with a slow zero-weight phase it can be the
// largest root.
func (s *SpectralSolution) TailDecay() float64 {
	var best float64
	for _, t := range s.terms {
		if !t.transient && t.z > best {
			best = t.z
		}
	}
	return best
}

// Level returns the stationary probability vector v_j across modes.
func (s *SpectralSolution) Level(j int) []float64 {
	if j < 0 {
		return make([]float64, s.s)
	}
	if j < s.n {
		return append([]float64(nil), s.boundary[j]...)
	}
	out := make([]float64, s.s)
	for _, t := range s.terms {
		g := t.gamma * math.Pow(t.z, float64(j-s.n))
		for i, u := range t.u {
			out[i] += g * u
		}
	}
	return out
}

// LevelProb returns P(j jobs present) = v_j·1.
func (s *SpectralSolution) LevelProb(j int) float64 {
	if j < 0 {
		return 0
	}
	if j < s.n {
		return vecSum(s.boundary[j])
	}
	var pr float64
	for _, t := range s.terms {
		pr += t.gamma * math.Pow(t.z, float64(j-s.n)) * vecSum(t.u)
	}
	return pr
}

// TailProb returns P(queue length ≥ j).
func (s *SpectralSolution) TailProb(j int) float64 {
	if j <= 0 {
		return 1
	}
	var head float64
	for l := 0; l < j && l < s.n; l++ {
		head += vecSum(s.boundary[l])
	}
	if j <= s.n {
		// Remaining head levels plus the whole expansion tail.
		var tail float64
		for l := j; l < s.n; l++ {
			tail += vecSum(s.boundary[l])
		}
		for _, t := range s.terms {
			tail += t.gamma * vecSum(t.u) / (1 - t.z)
		}
		return tail
	}
	// j > N: geometric partial sum Σ_{l≥j} z^{l−N} = z^{j−N}/(1−z).
	var tail float64
	for _, t := range s.terms {
		tail += t.gamma * vecSum(t.u) * math.Pow(t.z, float64(j-s.n)) / (1 - t.z)
	}
	return tail
}

// MeanQueue returns L = Σ_j j·P(j) using the closed form
// Σ_{j≥N} j·z^{j−N} = N/(1−z) + z/(1−z)² for the expansion tail.
func (s *SpectralSolution) MeanQueue() float64 {
	var l float64
	for j := 0; j < s.n; j++ {
		l += float64(j) * vecSum(s.boundary[j])
	}
	nn := float64(s.n)
	for _, t := range s.terms {
		om := 1 - t.z
		l += t.gamma * vecSum(t.u) * (nn/om + t.z/(om*om))
	}
	return l
}

// ModeMarginals returns the marginal distribution over environment modes,
// Σ_j v_j. For a breakdown/repair environment this must equal the
// environment's own stationary distribution.
func (s *SpectralSolution) ModeMarginals() []float64 {
	out := make([]float64, s.s)
	for j := 0; j < s.n; j++ {
		for i, v := range s.boundary[j] {
			out[i] += v
		}
	}
	for _, t := range s.terms {
		g := t.gamma / (1 - t.z)
		for i, u := range t.u {
			out[i] += g * u
		}
	}
	return out
}

// TotalProbability returns Σ_j v_j·1, which must be 1 up to roundoff.
func (s *SpectralSolution) TotalProbability() float64 {
	return vecSum(s.ModeMarginals())
}
