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
// Every environment is described as identical servers (Params.Servers),
// which qbd lumps into transitions itself; the solvers that work on the
// s×s transition matrix A as a dense matrix read it through
// Params.EnvMatrix. Only SolveSpectral and SolveApprox need the server to
// be reversible. SolveSpectralDense, the spectral solver's oracle,
// linearises Q(z) in w = 1/z for a standard QR eigensolve and takes each
// left vector as a null vector of Q(z), so it also solves a non-reversible
// server's queue, as long as its roots inside the unit disk are real; a
// complex root is an error.
package qbd

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
)

// ErrUnstable is returned when the offered load reaches the available
// service capacity (paper eq. 11 violated).
var ErrUnstable = errors.New("qbd: queue is not ergodic (offered load ≥ capacity)")

// serviceTol bounds the relative difference Validate accepts between an
// entry of C_N and the service rate Σ_p n_p·Rates[p] the description gives
// its mode: min(N, x)·µ and a sum of the phases' rates round differently.
const serviceTol = 1e-14

// Params specifies a Markov-modulated queue with Poisson arrivals of rate
// Lambda, an environment of s modes, and level-dependent service captured
// by the diagonals of C_j: ServiceDiag[j] for levels j = 0..N, with
// C_j = C_N for all j ≥ N (the homogeneous threshold). Servers describes
// the environment as identical, independent servers; Validate rejects
// Params without it.
type Params struct {
	Lambda      float64
	ServiceDiag [][]float64
	Servers     *Servers
}

// Servers describes an environment made of identical, independent
// servers, each moving through k phases (Palmer & Mitrani §3): a mode is
// a vector of phase counts, and A is the sum of one server's rates lumped
// by those counts (eq. 9), a mode moving one server from phase p to phase
// q at n_p·G[p][q]. Validate checks that C_N serves each mode at
// Σ_p n_p·Rates[p], and NewSweepSolver that one server's phase process is
// reversible on one irreducible class of phases, which makes every
// eigen-branch real. Any other phase must be transient: no rate enters
// it, as with a phase of zero weight, and it leaves to the class.
type Servers struct {
	// G holds one server's k×k phase-change rates, with a zero diagonal.
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
func (p Params) Size() int { return len(p.Servers.Counts) }

// Threshold returns N, the level beyond which the service diagonal is
// constant.
func (p Params) Threshold() int { return len(p.ServiceDiag) - 1 }

// Validate checks structural consistency. Every rate must be finite: an
// infinite one would never let the eigensolver's balancing terminate, and
// a NaN one would leave QR iterating until its budget runs out.
func (p Params) Validate() error {
	_, err := p.validate()
	return err
}

// validate is Validate, returning the lumped description.
func (p Params) validate() (*lumping, error) {
	if p.Servers == nil {
		return nil, errors.New("qbd: Params.Servers must describe the environment")
	}
	if !(p.Lambda > 0) || math.IsInf(p.Lambda, 0) {
		return nil, fmt.Errorf("qbd: arrival rate %v must be positive and finite", p.Lambda)
	}
	if len(p.ServiceDiag) < 2 {
		return nil, errors.New("qbd: need service diagonals for at least levels 0 and 1")
	}
	s := p.Size()
	for j, d := range p.ServiceDiag {
		if len(d) != s {
			return nil, fmt.Errorf("qbd: ServiceDiag[%d] has %d entries, want %d", j, len(d), s)
		}
		for i, v := range d {
			if v < 0 {
				return nil, fmt.Errorf("qbd: negative service rate %v at level %d mode %d", v, j, i)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("qbd: service rate %v at level %d mode %d must be finite", v, j, i)
			}
		}
	}
	return p.Servers.lump(p.cTop())
}

// move is one transition of a lumped mode: to mode to, at rate.
type move struct {
	to   int
	rate float64
}

// lumping is a server description turned into the environment's
// transitions: mode i's moves are moves[start[i]:start[i+1]], in
// ascending target order, and da[i] is their total rate, Dᴬ's diagonal,
// summed in that order as linalg.Matrix.RowSums sums A's row i.
type lumping struct {
	servers int
	keys    monoKeys
	start   []int
	moves   []move
	da      []float64
}

// lump validates d against the top service diagonal c and lumps it by
// phase counts: in mode n, each of the n_p servers in phase p moves to
// phase q at G[p][q], so the mode moves to n − e_p + e_q at n_p·G[p][q].
// G must be square with a finite, non-negative off-diagonal and a zero
// diagonal, Rates finite and non-negative, Counts every vector of k phase
// counts summing to one number of servers, each once, and c[i] the
// service rate Σ_p n_p·Rates[p] of mode i.
func (d *Servers) lump(c []float64) (*lumping, error) {
	if d.G == nil || d.G.Rows != d.G.Cols || d.G.Rows == 0 {
		return nil, errors.New("qbd: server description: G must be square and non-empty")
	}
	k := d.G.Rows
	if len(d.Rates) != k {
		return nil, fmt.Errorf("qbd: server description: %d service rates for %d phases", len(d.Rates), k)
	}
	for p := 0; p < k; p++ {
		if r := d.Rates[p]; !(r >= 0) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("qbd: server description: service rate %v of phase %d must be finite and non-negative", r, p)
		}
		for q := 0; q < k; q++ {
			g := d.G.At(p, q)
			if !(g >= 0) || math.IsInf(g, 0) || (p == q && g != 0) {
				return nil, fmt.Errorf("qbd: server description: G[%d][%d] = %v must be finite, non-negative and off the diagonal", p, q, g)
			}
		}
	}
	s := len(d.Counts)
	servers := 0
	if s > 0 && len(d.Counts[0]) == k {
		for _, n := range d.Counts[0] {
			servers += n
		}
	}
	if servers < 1 {
		return nil, errors.New("qbd: server description: mode 0 must count at least one server in k phases")
	}
	if want := binomial(servers+k-1, k-1); want != s {
		return nil, fmt.Errorf("qbd: server description: %d servers in %d phases make %d modes, the description has %d", servers, k, want, s)
	}
	keys, err := newMonoKeys(servers, k)
	if err != nil {
		return nil, err
	}
	index := make(map[uint64]int, s)
	for i, n := range d.Counts {
		if len(n) != k {
			return nil, fmt.Errorf("qbd: server description: mode %d has %d phase counts, want %d", i, len(n), k)
		}
		total, service := 0, 0.0
		for p, cnt := range n {
			if cnt < 0 {
				return nil, fmt.Errorf("qbd: server description: mode %d has a negative phase count", i)
			}
			total += cnt
			service += float64(cnt) * d.Rates[p]
		}
		if total != servers {
			return nil, fmt.Errorf("qbd: server description: mode %d counts %d servers, want %d", i, total, servers)
		}
		if math.Abs(c[i]-service) > serviceTol*math.Abs(service) {
			return nil, fmt.Errorf("qbd: server description does not reproduce C_N: mode %d serves at %v, the description at %v", i, c[i], service)
		}
		key := keys.of(n)
		if _, dup := index[key]; dup {
			return nil, fmt.Errorf("qbd: server description: mode %d repeats phase counts %v", i, n)
		}
		index[key] = i
	}
	// s distinct count vectors of the right size are every mode, so each
	// move's target is one.
	l := &lumping{servers: servers, keys: keys, start: make([]int, s+1), da: make([]float64, s)}
	for i, n := range d.Counts {
		key := keys.of(n)
		for p, cnt := range n {
			for q := 0; q < k; q++ {
				if g := d.G.At(p, q); cnt > 0 && g != 0 {
					l.moves = append(l.moves, move{index[key-keys.pow[p]+keys.pow[q]], float64(cnt) * g})
				}
			}
		}
		l.start[i+1] = len(l.moves)
		slices.SortFunc(l.row(i), func(a, b move) int { return a.to - b.to })
		for _, m := range l.row(i) {
			l.da[i] += m.rate
		}
	}
	return l, nil
}

// row returns mode i's moves.
func (l *lumping) row(i int) []move { return l.moves[l.start[i]:l.start[i+1]] }

// EnvMatrix returns the environment's s×s transition matrix A, p.Servers
// lumped by phase counts, for the solvers that work on A as a dense
// matrix. p must be valid; it panics on a server description that
// Validate rejects.
func (p Params) EnvMatrix() *linalg.Matrix {
	l, err := p.Servers.lump(p.cTop())
	if err != nil {
		panic(err)
	}
	a := linalg.NewMatrix(len(l.da), len(l.da))
	for i := range l.da {
		for _, m := range l.row(i) {
			a.Set(i, m.to, m.rate)
		}
	}
	return a
}

// cTop returns the level-independent service diagonal C = C_N.
func (p Params) cTop() []float64 { return p.ServiceDiag[len(p.ServiceDiag)-1] }

// QofZ evaluates the characteristic matrix polynomial
// Q(z) = Q0 + Q1·z + Q2·z² (eq. 16) with Q0 = λI, Q1 = A − Dᴬ − λI − C,
// Q2 = C, for real z.
func (p Params) QofZ(z float64) *linalg.Matrix {
	s := p.Size()
	a := p.EnvMatrix()
	da := a.RowSums()
	c := p.cTop()
	q := a.Scaled(z)
	for i := 0; i < s; i++ {
		q.Add(i, i, p.Lambda-z*(da[i]+p.Lambda+c[i])+z*z*c[i])
	}
	return q
}

// EnvStationary returns the stationary distribution π of the environment
// process alone (π(A − Dᴬ) = 0, normalised), as the dense null vector of
// the lumped generator: an O(s³) oracle for the multinomial π that one
// server's distribution gives.
func (p Params) EnvStationary() ([]float64, error) {
	return generatorStationary(p.EnvMatrix())
}

// generatorStationary returns the stationary distribution of the chain
// with off-diagonal rates a: the null vector π of a − diag(row sums),
// normalised to sum 1.
func generatorStationary(a *linalg.Matrix) ([]float64, error) {
	gen := a.Clone()
	for i, d := range gen.RowSums() {
		gen.Add(i, i, -d)
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

// Load returns the offered load relative to capacity: λ / (N·Σ_p π_p·r_p),
// π being one server's stationary distribution and r_p its service rate
// in phase p, the capacity the spectral solvers take. The queue is ergodic
// iff Load < 1 (paper eq. 11 in matrix form).
func (p Params) Load() (float64, error) {
	l, err := p.validate()
	if err != nil {
		return 0, err
	}
	pi, _, err := stationary(p.Servers)
	if err != nil {
		return 0, err
	}
	capacity := p.Servers.capacity(l.servers, pi)
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
