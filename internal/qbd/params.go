// Package qbd solves the Markov-modulated M/M-type queue of Palmer &
// Mitrani §3 — a quasi-birth-death process whose environment modulates the
// service capacity — by four methods:
//
//   - SolveSpectral: the paper's exact spectral-expansion solution (§3.1).
//     det Q(z) factors into one scalar equation per multiset of one
//     server's eigen-branches, each with one real root in (0, 1) and a
//     closed-form left vector, and the boundary is an O(N·s³) block
//     elimination. It is one point of a SweepSolver, which hoists the
//     λ-independent work once per environment.
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
// order (Servers.Modes), each found by its rank among the vectors of phase
// counts, the lumping into transitions, and the capacity that decides
// stability (Servers.Capacity) — and the solvers that work on
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
	"math/bits"
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
// each moving through k phases (Palmer & Mitrani §3), by one server. A
// mode is a vector of phase counts summing to N (Modes), A is the sum of
// one server's rates lumped by those counts (eq. 9), a mode moving one
// server from phase p to phase q at n_p·G[p][q], and the queue is ergodic
// iff λ is below Capacity (eq. 11). Params.Validate checks that C_N serves
// each mode at Σ_p n_p·Rates[p], and NewSweepSolver that one server's
// phase process is reversible on one irreducible class of phases, which
// makes every eigen-branch real. Any other phase must be transient: no
// rate enters it, as with a zero-weight phase, and it leaves to the class.
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
// service rate per phase, and at least one server: what Capacity reads.
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

// Validate is check and at most math.MaxInt32 modes, as many as the int32
// composition tables index: what a solver needs before it enumerates one.
func (d *Servers) Validate() error {
	if err := d.check(); err != nil || NumModes(d.N, d.G.Rows) <= math.MaxInt32 {
		return err
	}
	return fmt.Errorf("qbd: server description: %d servers in %d phases make more than %d modes", d.N, d.G.Rows, math.MaxInt32)
}

// Modes returns the environment's modes: every vector of k phase counts
// summing to N, s = C(N+k−1, k−1) of them (paper eq. 12), in one canonical
// order — ascending number of servers in phases with a positive service
// rate, ties in descending lexicographic order. For the paper's server,
// operative phases first, that is §3's numbering. d must be valid.
func (d *Servers) Modes() [][]int { return d.space().modes }

// modeSpace is every vector of k phase counts summing to N, flattened in
// rank order (ranked) and in mode order (modes), and their rankTable.
type modeSpace struct {
	ranked []int
	modes  [][]int
	ranks  rankTable
}

// space enumerates valid d's modes once for all a solver builds on them.
func (d *Servers) space() modeSpace {
	k := d.G.Rows
	ms := modeSpace{ranked: make([]int, NumModes(d.N, k)*k), ranks: newRankTable(k, d.N)}
	byBusy := make([][][]int, d.N+1)
	next := make([]int, k)
	next[0] = d.N
	for i := 0; i < len(ms.ranked); i += k {
		n := ms.ranked[i : i+k : i+k]
		copy(n, next)
		nextComposition(next)
		busy := 0
		for p, c := range n {
			if d.Rates[p] > 0 {
				busy += c
			}
		}
		byBusy[busy] = append(byBusy[busy], n)
	}
	ms.modes = slices.Concat(byBusy...)
	return ms
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
// of k phases each (paper eq. 12), or math.MaxInt if that overflows: s is
// built up as C(n+b, b) = C(n+b−1, b−1)·(n+b)/b, each at most s.
func NumModes(n, k int) int {
	s := uint64(1)
	for b := 1; b < k; b++ {
		hi, lo := bits.Mul64(s, uint64(n+b))
		if hi >= uint64(b) {
			return math.MaxInt
		}
		s, _ = bits.Div64(hi, lo, uint64(b))
	}
	return int(min(s, math.MaxInt))
}

// nextComposition steps n in place to the next vector of its total in
// rank order, and reports whether there was one.
func nextComposition(n []int) bool {
	last := len(n) - 1
	for i := last - 1; i >= 0; i-- {
		if n[i] > 0 {
			n[i]--
			n[last], n[i+1] = 0, n[last]+1
			return true
		}
	}
	return false
}

// rankTable ranks the vectors of k counts with one total in descending
// lexicographic order, by the combinatorial number system (Knuth, TAOCP
// 4A, §7.2.1.3): n sits at Σ_{p=1}^{k−1} C(r_p+k−p−1, k−p), with
// r_p = n_p + … + n_{k−1}. t[b][m] = C(m+b, b), for m ≤ total.
type rankTable [][]int

func newRankTable(k, total int) rankTable {
	t := make(rankTable, k)
	for b := range t {
		t[b] = make([]int, total+1)
		for m := range t[b] {
			t[b][m] = NumModes(m, b+1)
		}
	}
	return t
}

// rank returns n's index among the vectors of its total.
func (t rankTable) rank(n []int) int {
	r, rest := 0, 0
	for p := len(n) - 1; p > 0; p-- {
		if rest += n[p]; rest > 0 {
			r += t[len(n)-p][rest-1]
		}
	}
	return r
}

// parents writes into par[p] the rank of n − e_p, or −1 where n_p = 0,
// for n of the given total and rank r. Removing e_p lowers r_1..r_p by
// one, so by Pascal's rule each parent is the last one less one entry.
func (t rankTable) parents(n []int, total, r int, par []int32) {
	for p, c := range n {
		par[p] = -1
		if c > 0 {
			par[p] = int32(r)
		}
		if total -= c; total > 0 { // total is now r_{p+1}
			r -= t[len(n)-p-2][total-1]
		}
	}
}

// Size returns the number of environment modes s.
func (p Params) Size() int { return NumModes(p.Servers.N, p.Servers.G.Rows) }

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

// validate is Validate, returning the mode space.
func (p Params) validate() (modeSpace, error) {
	if err := p.checkShape(); err != nil {
		return modeSpace{}, err
	}
	for j, d := range p.ServiceDiag {
		for i, v := range d {
			if v < 0 {
				return modeSpace{}, fmt.Errorf("qbd: negative service rate %v at level %d mode %d", v, j, i)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return modeSpace{}, fmt.Errorf("qbd: service rate %v at level %d mode %d must be finite", v, j, i)
			}
		}
	}
	ms := p.Servers.space()
	c := p.cTop()
	for i, n := range ms.modes {
		var service float64
		for q, cnt := range n {
			service += float64(cnt) * p.Servers.Rates[q]
		}
		if math.Abs(c[i]-service) > serviceTol*math.Abs(service) {
			return modeSpace{}, fmt.Errorf("qbd: server description does not reproduce C_N: mode %d serves at %v, the description at %v", i, c[i], service)
		}
	}
	return ms, nil
}

// validateEnv is validate for all of p but λ, which checkPoint reports
// after the environment's errors.
func (p Params) validateEnv() (modeSpace, error) {
	p.Lambda = 1
	return p.validate()
}

// checkShape checks λ, the server description, and one service diagonal
// of s entries per level: what Load reads.
func (p Params) checkShape() error {
	if p.Servers == nil {
		return errors.New("qbd: Params.Servers must describe the environment")
	}
	if !(p.Lambda > 0) || math.IsInf(p.Lambda, 0) {
		return fmt.Errorf("qbd: arrival rate %v must be positive and finite", p.Lambda)
	}
	if len(p.ServiceDiag) < 2 {
		return errors.New("qbd: need service diagonals for at least levels 0 and 1")
	}
	if err := p.Servers.Validate(); err != nil {
		return err
	}
	s := p.Size()
	for j, d := range p.ServiceDiag {
		if len(d) != s {
			return fmt.Errorf("qbd: ServiceDiag[%d] has %d entries, want %d", j, len(d), s)
		}
	}
	return nil
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
	start []int
	moves []move
	da    []float64
}

// lump lumps the checked description d by its modes' phase counts: in
// mode n, each of the n_p servers in phase p moves to phase q at G[p][q],
// so the mode moves to n − e_p + e_q, found by its rank, at n_p·G[p][q].
func (d *Servers) lump(ms modeSpace) *lumping {
	k := d.G.Rows
	index := make([]int32, len(ms.modes))
	for i, n := range ms.modes {
		index[ms.ranks.rank(n)] = int32(i)
	}
	l := &lumping{start: make([]int, len(ms.modes)+1), da: make([]float64, len(ms.modes))}
	to := make([]int, k)
	for i, n := range ms.modes {
		for p, cnt := range n {
			for q := 0; q < k; q++ {
				if g := d.G.At(p, q); cnt > 0 && g != 0 {
					copy(to, n)
					to[p]--
					to[q]++
					l.moves = append(l.moves, move{int(index[ms.ranks.rank(to)]), float64(cnt) * g})
				}
			}
		}
		l.start[i+1] = len(l.moves)
		slices.SortFunc(l.row(i), func(a, b move) int { return a.to - b.to })
		for _, m := range l.row(i) {
			l.da[i] += m.rate
		}
	}
	return l
}

// row returns mode i's moves.
func (l *lumping) row(i int) []move { return l.moves[l.start[i]:l.start[i+1]] }

// EnvMatrix returns the environment's s×s transition matrix A, p.Servers
// lumped by phase counts, for the solvers that work on A as a dense
// matrix. p must be valid.
func (p Params) EnvMatrix() *linalg.Matrix {
	l := p.Servers.lump(p.Servers.space())
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
// The queue is ergodic iff Load < 1 (paper eq. 11 in matrix form). Of
// the diagonals it checks only the lengths.
func (p Params) Load() (float64, error) {
	if err := p.checkShape(); err != nil {
		return 0, err
	}
	pi, _, err := stationary(p.Servers)
	if err != nil {
		return 0, err
	}
	return p.Lambda / p.Servers.capacity(pi), nil
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
