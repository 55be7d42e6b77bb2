// Package markov translates the server of Palmer & Mitrani §3 into the
// description qbd takes. One server alternates between hyperexponential
// operative periods (n phases, weights α, rates ξ) and hyperexponential
// inoperative periods (m phases, weights β, rates η), so it moves through
// k = n + m phases: its operative phases first, then its inoperative
// ones. qbd derives the rest from that one server — the operational
// modes, the transition-rate matrix A of eq. (9) and the capacity — and
// this package gives the server's phase-change rates, its service rate in
// each phase, and the per-level service-rate diagonals C_j over qbd's
// modes.
package markov

import (
	"repro/internal/dist"
	"repro/internal/linalg"
)

// ServerRates returns one server's k×k phase-change rate matrix: from
// operative phase j to inoperative phase l at ξ_j·β_l, and back at
// η_l·α_j. Its diagonal is zero.
func ServerRates(op, rep *dist.HyperExp) *linalg.Matrix {
	nOp, k := op.Phases(), op.Phases()+rep.Phases()
	g := linalg.NewMatrix(k, k)
	for j := 0; j < nOp; j++ {
		for l := nOp; l < k; l++ {
			g.Set(j, l, op.Rates[j]*rep.Weights[l-nOp])
			g.Set(l, j, rep.Rates[l-nOp]*op.Weights[j])
		}
	}
	return g
}

// PhaseServiceRates returns one server's service rate in each phase: mu
// in an operative phase, 0 in an inoperative one.
func PhaseServiceRates(op, rep *dist.HyperExp, mu float64) []float64 {
	r := make([]float64, op.Phases()+rep.Phases())
	for j := 0; j < op.Phases(); j++ {
		r[j] = mu
	}
	return r
}

// Operative returns x_i, the number of operative servers in each mode:
// the mode's counts in its first opPhases phases.
func Operative(modes [][]int, opPhases int) []int {
	xs := make([]int, len(modes))
	for i, m := range modes {
		for _, c := range m[:opPhases] {
			xs[i] += c
		}
	}
	return xs
}

// ServiceDiag returns the diagonal of C_j for levels j = 0..n, n being the
// number of servers, as a slice of s-vectors over the modes whose
// operative counts are xs: ServiceDiag[j][i] = min(j, x_i)·µ (eq. 9,
// second line). For j ≥ n the level-n diagonal applies.
func ServiceDiag(xs []int, n int, mu float64) [][]float64 {
	out := make([][]float64, n+1)
	for j := range out {
		row := make([]float64, len(xs))
		for i, x := range xs {
			row[i] = float64(min(j, x)) * mu
		}
		out[j] = row
	}
	return out
}
