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
// Every environment is described by one server (Params.Servers): its
// phase-change rates, its service rate in each phase and the number of
// servers N. qbd derives everything else from it — the modes and their
// order (Servers.Modes), the lumping into transitions, and the capacity
// that decides stability (Servers.Capacity) — and the solvers that work on
// the s×s transition matrix A as a dense matrix read it through
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

// ErrUnstable is returned when the offered load reaches the servers'
// capacity (paper eq. 11 violated; see Servers.Capacity).
var ErrUnstable = errors.New("qbd: queue is not ergodic (offered load ≥ capacity)")

// serviceTol bounds the relative difference Validate accepts between an
// entry of C_N and the service rate Σ_p n_p·Rates[p] the description gives
// its mode: min(N, x)·µ and a sum of the phases' rates round differently.
const serviceTol = 1e-14

// Params specifies a Markov-modulated queue with Poisson arrivals of rate
// Lambda, an environment of s modes, and level-dependent service captured
// by the diagonals of C_j: ServiceDiag[j] for levels j = 0..N, each
// indexed by Servers.Modes, with C_j = C_N for all j ≥ N (the homogeneous
// threshold). Servers describes the environment; Validate rejects Params
// without it.
type Params struct {
	Lambda      float64
	ServiceDiag [][]float64
	Servers     *Servers
}

// Servers describes an environment of N identical, independent servers,
// each moving through k phases (Palmer & Mitrani §3), by one server: it is
// the only model of the server qbd takes. A mode is a vector of phase
// counts summing to N (Modes), A is the sum of one server's rates lumped
// by those counts (eq. 9), a mode moving one server from phase p to phase
// q at n_p·G[p][q], and the queue is ergodic iff λ is below Capacity
// (eq. 11). Validate checks that C_N serves each mode at Σ_p n_p·Rates[p],
// and NewSweepSolver that one server's phase process is reversible on one
// irreducible class of phases, which makes every eigen-branch real. Any
// other phase must be transient: no rate enters it, as with a phase of
// zero weight, and it leaves to the class.
type Servers struct {
	// G holds one server's k×k phase-change rates, with a zero diagonal.
	G *linalg.Matrix
	// Rates[p] is one server's service rate in phase p: µ in an operative
	// phase, 0 in an inoperative one.
	Rates []float64
	// N is the number of servers, at least 1.
	N int
}

// check validates d on its own: G square and non-empty with a finite,
// non-negative off-diagonal and a zero diagonal, one finite, non-negative
// service rate per phase, and at least one server.
func (d *Servers) check() error {
	if d.G == nil || d.G.Rows != d.G.Cols || d.G.Rows == 0 {
		return errors.New("qbd: server description: G must be square and non-empty")
	}
	k := d.G.Rows
	if len(d.Rates) != k {
		return fmt.Errorf("qbd: server description: %d service rates for %d phases", len(d.Rates), k)
	}
	for p := 0; p < k; p++ {
		if r := d.Rates[p]; !(r >= 0) || math.IsInf(r, 0) {
			return fmt.Errorf("qbd: server description: service rate %v of phase %d must be finite and non-negative", r, p)
		}
		for q := 0; q < k; q++ {
			g := d.G.At(p, q)
			if !(g >= 0) || math.IsInf(g, 0) || (p == q && g != 0) {
				return fmt.Errorf("qbd: server description: G[%d][%d] = %v must be finite, non-negative and off the diagonal", p, q, g)
			}
		}
	}
	if d.N < 1 {
		return fmt.Errorf("qbd: server description: %d servers, need at least 1", d.N)
	}
	return nil
}

// Modes returns the environment's modes: every vector of k phase counts
// summing to N, s = C(N+k−1, k−1) of them (paper eq. 12), in one canonical
// order — ascending number of servers in phases with a positive service
// rate, ties in descending lexicographic order. For the paper's server,
// operative phases first, that is §3's numbering. d must be valid.
func (d *Servers) Modes() [][]int {
	k := d.G.Rows
	flat := compositions(d.N, k)
	byBusy := make([][][]int, d.N+1)
	for i := 0; i < len(flat); i += k {
		n := flat[i : i+k : i+k]
		busy := 0
		for p, c := range n {
			if d.Rates[p] > 0 {
				busy += c
			}
		}
		byBusy[busy] = append(byBusy[busy], n)
	}
	return slices.Concat(byBusy...)
}

// Capacity returns the servers' service capacity N·Σ_p π_p·Rates[p], π
// being one server's stationary distribution over its phases: the queue
// is ergodic iff λ is below it (paper eq. 11 in matrix form). Every
// solver's stability check takes this one number.
func (d *Servers) Capacity() (float64, error) {
	if err := d.check(); err != nil {
		return 0, err
	}
	pi, _, err := stationary(d)
	if err != nil {
		return 0, err
	}
	return d.capacity(pi), nil
}

// NumModes returns s = C(n+k−1, k−1), the number of modes of n servers
// of k phases each (paper eq. 12).
func NumModes(n, k int) int { return binomial(n+k-1, k-1) }

// Size returns the number of environment modes s.
func (p Params) Size() int { return NumModes(p.Servers.N, p.Servers.G.Rows) }

// Threshold returns N, the level beyond which the service diagonal is
// constant.
func (p Params) Threshold() int { return len(p.ServiceDiag) - 1 }

// Validate checks structural consistency. Every rate must be finite: an
// infinite one would never let the eigensolver's balancing terminate, and
// a NaN one would leave QR iterating until its budget runs out.
func (p Params) Validate() error {
	_, _, err := p.validate()
	return err
}

// validate is Validate, returning the modes and their lumping.
func (p Params) validate() (*lumping, [][]int, error) {
	if p.Servers == nil {
		return nil, nil, errors.New("qbd: Params.Servers must describe the environment")
	}
	if !(p.Lambda > 0) || math.IsInf(p.Lambda, 0) {
		return nil, nil, fmt.Errorf("qbd: arrival rate %v must be positive and finite", p.Lambda)
	}
	if len(p.ServiceDiag) < 2 {
		return nil, nil, errors.New("qbd: need service diagonals for at least levels 0 and 1")
	}
	if err := p.Servers.check(); err != nil {
		return nil, nil, err
	}
	s := p.Size()
	for j, d := range p.ServiceDiag {
		if len(d) != s {
			return nil, nil, fmt.Errorf("qbd: ServiceDiag[%d] has %d entries, want %d", j, len(d), s)
		}
		for i, v := range d {
			if v < 0 {
				return nil, nil, fmt.Errorf("qbd: negative service rate %v at level %d mode %d", v, j, i)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("qbd: service rate %v at level %d mode %d must be finite", v, j, i)
			}
		}
	}
	modes := p.Servers.Modes()
	l, err := p.Servers.lump(modes, p.cTop())
	return l, modes, err
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
	keys  monoKeys
	start []int
	moves []move
	da    []float64
}

// lump lumps the checked description d by its modes' phase counts,
// checking it against the top service diagonal c: in mode n, each of the
// n_p servers in phase p moves to phase q at G[p][q], so the mode moves
// to n − e_p + e_q at n_p·G[p][q]. c[i] must be the service rate
// Σ_p n_p·Rates[p] of mode i.
func (d *Servers) lump(modes [][]int, c []float64) (*lumping, error) {
	k := d.G.Rows
	keys, err := newMonoKeys(d.N, k)
	if err != nil {
		return nil, err
	}
	index := make(map[uint64]int, len(modes))
	for i, n := range modes {
		var service float64
		for p, cnt := range n {
			service += float64(cnt) * d.Rates[p]
		}
		if math.Abs(c[i]-service) > serviceTol*math.Abs(service) {
			return nil, fmt.Errorf("qbd: server description does not reproduce C_N: mode %d serves at %v, the description at %v", i, c[i], service)
		}
		index[keys.of(n)] = i
	}
	l := &lumping{keys: keys, start: make([]int, len(modes)+1), da: make([]float64, len(modes))}
	for i, n := range modes {
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
	l, err := p.Servers.lump(p.Servers.Modes(), p.cTop())
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

// Load returns the offered load relative to capacity, λ/Servers.Capacity.
// The queue is ergodic iff Load < 1 (paper eq. 11 in matrix form).
func (p Params) Load() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	capacity, err := p.Servers.Capacity()
	if err != nil {
		return 0, err
	}
	return p.Lambda / capacity, nil
}

// CheckStable returns ErrUnstable when Load ≥ 1.
func (p Params) CheckStable() error {
	load, err := p.Load()
	if err != nil {
		return err
	}
	return checkLoad(load)
}

// checkLoad returns ErrUnstable unless load < 1.
func checkLoad(load float64) error {
	if !(load < 1) {
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
