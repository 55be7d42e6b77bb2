// Package qbd solves the Markov-modulated M/M-type queue of Palmer &
// Mitrani §3 — a quasi-birth-death process whose environment modulates the
// service capacity — by four methods:
//
//   - SolveSpectral: the paper's exact spectral-expansion solution (§3.1).
//     Params.Servers describes the environment as N identical servers, so
//     det Q(z) factors into one scalar equation per multiset of one
//     server's eigen-branches, each with one real root in (0, 1) and a
//     closed-form left vector; a phase of zero weight adds a transient
//     branch of its own. The boundary is an O(N·s³) block elimination
//     rather than a dense (N+1)s system: N−1 in-place Gauss–Jordan
//     inverses whose row updates are linalg.Axpy, fused multiply-adds on
//     CPUs with AVX2 and FMA. It is one point of a SweepSolver, which
//     hoists the λ-independent work once per environment and solves a
//     λ-sweep allocation-free; a one-off solve and every sweep point run
//     the same code.
//   - SolveApprox: the geometric approximation (§3.2, eq. 21) that keeps
//     only the dominant eigenvalue, the all-Perron multiset's root;
//     asymptotically exact in heavy traffic.
//   - SolveMatrixGeometric: the classical R-matrix method of Neuts, the
//     comparator of Mitrani & Chakka [6], used as an independent baseline.
//   - SolveTruncated: direct block-tridiagonal solution of the chain
//     truncated at a finite level, used as a validation oracle.
//
// SolveSpectral and SolveApprox need the server description and reject
// Params without one (ErrNoServers). SolveSpectralDense, the spectral
// solver's oracle, does not: its eigen stage linearises Q(z) in w = 1/z
// for a standard QR eigensolve and takes each left vector as a null
// vector of Q(z), so it also solves environments that are not made of
// identical servers, as long as their roots inside the unit disk are
// real; a complex root is an error.
package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrUnstable is returned when the offered load reaches the available
// service capacity (paper eq. 11 violated).
var ErrUnstable = errors.New("qbd: queue is not ergodic (offered load ≥ capacity)")

// ErrNoServers is returned by the spectral and approximate solvers for
// Params without a server description (Params.Servers).
var ErrNoServers = errors.New("qbd: the spectral solvers need Params.Servers, the environment described as identical servers")

// Params specifies a Markov-modulated queue with Poisson arrivals of rate
// Lambda, an s×s environment transition matrix A (zero diagonal), and
// level-dependent service captured by the diagonals of C_j: ServiceDiag[j]
// for levels j = 0..N, with C_j = C_N for all j ≥ N (the homogeneous
// threshold). Servers describes the environment as identical independent
// servers, which SolveSpectral and SolveApprox require; the other solvers
// ignore it.
type Params struct {
	Lambda      float64
	A           *linalg.Matrix
	ServiceDiag [][]float64
	Servers     *Servers
}

// Servers describes an environment made of identical, independent
// servers, each moving through k phases (Palmer & Mitrani §3): a mode is
// a vector of phase counts, and A and C_N are the sums of one server's
// rates lumped by those counts. NewSweepSolver checks that the
// description reproduces A and C_N, and that one server's phase process
// is reversible on one irreducible class of phases, which makes every
// eigen-branch real. Any other phase must be transient: no rate enters
// it, as with a phase of zero weight, and it leaves to the class.
type Servers struct {
	// G holds one server's k×k phase-change rates, with a zero diagonal
	// as in A.
	G *linalg.Matrix
	// Rates[p] is one server's service rate in phase p: µ in an operative
	// phase, 0 in an inoperative one.
	Rates []float64
	// Counts[i][p] is the number of servers in phase p in mode i. Every
	// row sums to the same number of servers, and every such count vector
	// is a mode.
	Counts [][]int
}

// Size returns the number of environment modes s.
func (p Params) Size() int { return p.A.Rows }

// Threshold returns N, the level beyond which the service diagonal is
// constant.
func (p Params) Threshold() int { return len(p.ServiceDiag) - 1 }

// Validate checks structural consistency. Every rate must be finite: an
// infinite one would never let the eigensolver's balancing terminate, and
// a NaN one would leave QR iterating until its budget runs out.
func (p Params) Validate() error {
	if p.A == nil || p.A.Rows != p.A.Cols {
		return errors.New("qbd: A must be square")
	}
	if !(p.Lambda > 0) || math.IsInf(p.Lambda, 0) {
		return fmt.Errorf("qbd: arrival rate %v must be positive and finite", p.Lambda)
	}
	if len(p.ServiceDiag) < 2 {
		return errors.New("qbd: need service diagonals for at least levels 0 and 1")
	}
	s := p.A.Rows
	for j, d := range p.ServiceDiag {
		if len(d) != s {
			return fmt.Errorf("qbd: ServiceDiag[%d] has %d entries, want %d", j, len(d), s)
		}
		for i, v := range d {
			if v < 0 {
				return fmt.Errorf("qbd: negative service rate %v at level %d mode %d", v, j, i)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("qbd: service rate %v at level %d mode %d must be finite", v, j, i)
			}
		}
	}
	for i := 0; i < s; i++ {
		if p.A.At(i, i) != 0 {
			return fmt.Errorf("qbd: A diagonal entry %d is %v, want 0", i, p.A.At(i, i))
		}
		for j := 0; j < s; j++ {
			v := p.A.At(i, j)
			if v < 0 {
				return fmt.Errorf("qbd: negative rate A[%d][%d] = %v", i, j, v)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("qbd: rate A[%d][%d] = %v must be finite", i, j, v)
			}
		}
	}
	return nil
}

// dA returns the row sums of A — the diagonal of the matrix Dᴬ in eq. (14).
func (p Params) dA() []float64 { return p.A.RowSums() }

// cTop returns the level-independent service diagonal C = C_N.
func (p Params) cTop() []float64 { return p.ServiceDiag[len(p.ServiceDiag)-1] }

// QofZ evaluates the characteristic matrix polynomial
// Q(z) = Q0 + Q1·z + Q2·z² (eq. 16) with Q0 = λI, Q1 = A − Dᴬ − λI − C,
// Q2 = C, for real z.
func (p Params) QofZ(z float64) *linalg.Matrix {
	s := p.Size()
	da := p.dA()
	c := p.cTop()
	q := p.A.Scaled(z)
	for i := 0; i < s; i++ {
		q.Add(i, i, p.Lambda-z*(da[i]+p.Lambda+c[i])+z*z*c[i])
	}
	return q
}

// EnvStationary returns the stationary distribution π of the environment
// process alone (π(A − Dᴬ) = 0, normalised).
func (p Params) EnvStationary() ([]float64, error) {
	s := p.Size()
	gen := p.A.Clone()
	da := p.dA()
	for i := 0; i < s; i++ {
		gen.Add(i, i, -da[i])
	}
	pi, err := linalg.ForcedLeftNullVector(gen)
	if err != nil {
		return nil, fmt.Errorf("qbd: environment has no stationary vector: %w", err)
	}
	var sum float64
	for _, v := range pi {
		sum += v
	}
	if sum == 0 {
		return nil, errors.New("qbd: degenerate environment stationary vector")
	}
	neg := false
	for i := range pi {
		pi[i] /= sum
		if pi[i] < -1e-9 {
			neg = true
		}
	}
	if neg {
		return nil, errors.New("qbd: environment stationary vector has negative entries (reducible chain?)")
	}
	return pi, nil
}

// Load returns the offered load relative to capacity: λ / Σ_i π_i·C_N[i].
// The queue is ergodic iff Load < 1 (paper eq. 11 in matrix form).
func (p Params) Load() (float64, error) {
	pi, err := p.EnvStationary()
	if err != nil {
		return 0, err
	}
	var capacity float64
	c := p.cTop()
	for i, v := range pi {
		capacity += v * c[i]
	}
	if capacity <= 0 {
		return math.Inf(1), nil
	}
	return p.Lambda / capacity, nil
}

// CheckStable returns ErrUnstable when Load ≥ 1.
func (p Params) CheckStable() error {
	load, err := p.Load()
	if err != nil {
		return err
	}
	if load >= 1 {
		return fmt.Errorf("%w: load = %v", ErrUnstable, load)
	}
	return nil
}

// serviceAt returns the service diagonal for an arbitrary level j ≥ 0.
func (p Params) serviceAt(j int) []float64 {
	if j >= len(p.ServiceDiag) {
		return p.ServiceDiag[len(p.ServiceDiag)-1]
	}
	return p.ServiceDiag[j]
}
