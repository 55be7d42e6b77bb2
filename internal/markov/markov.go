// Package markov builds the Markovian environment of Palmer & Mitrani §3:
// N servers, each alternating between hyperexponential operative periods
// (n phases, weights α, rates ξ) and hyperexponential inoperative periods
// (m phases, weights β, rates η). The environment state — the "operational
// mode" — records how many servers sit in each phase; this package
// enumerates the modes and describes them as qbd takes them: one server's
// phase-change rates, each phase's service rate and each mode's phase
// counts, from which qbd lumps the transition-rate matrix A of eq. (9),
// and the per-level service-rate diagonals C_j.
package markov

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/linalg"
)

// Mode is one operational mode: X[j] servers in operative phase j and Y[k]
// servers in inoperative phase k, with ΣX + ΣY = N.
type Mode struct {
	X []int
	Y []int
}

// Operative returns the number of operative servers x = Σ X[j].
func (m Mode) Operative() int {
	var x int
	for _, v := range m.X {
		x += v
	}
	return x
}

// Env is the enumerated environment for N unreliable servers.
type Env struct {
	N   int
	Op  *dist.HyperExp // operative-period distribution (α, ξ)
	Rep *dist.HyperExp // inoperative-period distribution (β, η)

	modes []Mode
}

// NewEnv enumerates the operational modes for N servers with the given
// operative and repair distributions. Modes are ordered exactly as in the
// paper's worked example: by ascending number of operative servers, and
// within a group lexicographically by descending operative phase counts
// (so for N=2, n=2, m=1: "2 inoperative" is mode 0 and "2 operative in
// phase 2" is mode 5).
func NewEnv(n int, op, rep *dist.HyperExp) (*Env, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: N = %d servers, need at least 1", n)
	}
	if op == nil || rep == nil {
		return nil, fmt.Errorf("markov: nil distribution")
	}
	e := &Env{N: n, Op: op, Rep: rep}
	nOp, nRep := op.Phases(), rep.Phases()
	for x := 0; x <= n; x++ {
		xParts := compositionsDesc(x, nOp)
		yParts := compositionsDesc(n-x, nRep)
		for _, xs := range xParts {
			for _, ys := range yParts {
				e.modes = append(e.modes, Mode{X: xs, Y: ys})
			}
		}
	}
	if got, want := len(e.modes), NumModes(n, nOp, nRep); got != want {
		return nil, fmt.Errorf("markov: enumerated %d modes, formula says %d", got, want)
	}
	return e, nil
}

// NumModes returns s = C(N+n+m−1, n+m−1), the number of operational modes
// (paper eq. 12).
func NumModes(n, opPhases, repPhases int) int {
	return binomial(n+opPhases+repPhases-1, opPhases+repPhases-1)
}

// NumModes returns the enumerated state-space size s.
func (e *Env) NumModes() int { return len(e.modes) }

// Mode returns the i-th operational mode.
func (e *Env) Mode(i int) Mode { return e.modes[i] }

// Modes returns the full mode list (shared slice; do not mutate).
func (e *Env) Modes() []Mode { return e.modes }

// OperativeCounts returns x_i, the number of operative servers in each mode.
func (e *Env) OperativeCounts() []int {
	xs := make([]int, len(e.modes))
	for i, m := range e.modes {
		xs[i] = m.Operative()
	}
	return xs
}

// phases returns k = n + m, the number of phases one server moves
// through: its operative phases first, then its inoperative ones — the
// order ServerRates, PhaseServiceRates and PhaseCounts share.
func (e *Env) phases() int { return e.Op.Phases() + e.Rep.Phases() }

// ServerRates returns one server's k×k phase-change rate matrix: from
// operative phase j to inoperative phase l at ξ_j·β_l, and back at
// η_l·α_j. Its diagonal is zero. A is the sum of N copies of it lumped by
// phase counts (qbd.Servers).
func (e *Env) ServerRates() *linalg.Matrix {
	nOp, k := e.Op.Phases(), e.phases()
	g := linalg.NewMatrix(k, k)
	for j := 0; j < nOp; j++ {
		for l := nOp; l < k; l++ {
			g.Set(j, l, e.Op.Rates[j]*e.Rep.Weights[l-nOp])
			g.Set(l, j, e.Rep.Rates[l-nOp]*e.Op.Weights[j])
		}
	}
	return g
}

// PhaseServiceRates returns one server's service rate in each phase: mu
// in an operative phase, 0 in an inoperative one.
func (e *Env) PhaseServiceRates(mu float64) []float64 {
	r := make([]float64, e.phases())
	for j := 0; j < e.Op.Phases(); j++ {
		r[j] = mu
	}
	return r
}

// PhaseCounts returns, for every mode in order, the number of servers in
// each of the k phases: X followed by Y.
func (e *Env) PhaseCounts() [][]int {
	out := make([][]int, len(e.modes))
	for i, m := range e.modes {
		out[i] = append(append(make([]int, 0, len(m.X)+len(m.Y)), m.X...), m.Y...)
	}
	return out
}

// ServiceDiag returns the diagonal of C_j for levels j = 0..N as a slice of
// s-vectors: ServiceDiag()[j][i] = min(j, x_i)·µ (eq. 9, second line). For
// j ≥ N the level-N diagonal applies.
func (e *Env) ServiceDiag(mu float64) [][]float64 {
	xs := e.OperativeCounts()
	out := make([][]float64, e.N+1)
	for j := 0; j <= e.N; j++ {
		row := make([]float64, len(xs))
		for i, x := range xs {
			row[i] = float64(min(j, x)) * mu
		}
		out[j] = row
	}
	return out
}

// ExpectedOperative returns the steady-state mean number of operative
// servers, N·η/(ξ+η) (paper §3): the fraction of time a server is operative
// depends only on the mean period lengths.
func (e *Env) ExpectedOperative() float64 {
	xi := e.Op.Rate()
	eta := e.Rep.Rate()
	return float64(e.N) * eta / (xi + eta)
}

// compositionsDesc lists all ways to write total as an ordered sum of
// `parts` non-negative integers, in lexicographically descending order of
// the first components (matching the paper's mode numbering).
func compositionsDesc(total, parts int) [][]int {
	if parts == 0 {
		if total == 0 {
			return [][]int{{}}
		}
		return nil
	}
	var out [][]int
	var rec func(rem, idx int, cur []int)
	rec = func(rem, idx int, cur []int) {
		if idx == parts-1 {
			comp := append(append([]int(nil), cur...), rem)
			out = append(out, comp)
			return
		}
		for v := rem; v >= 0; v-- {
			rec(rem-v, idx+1, append(cur, v))
		}
	}
	rec(total, 0, make([]int, 0, parts))
	return out
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}
