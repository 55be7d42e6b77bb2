package qbd

import "math"

// Solution is the common read interface over the stationary distribution
// produced by any of the four solvers.
type Solution interface {
	// Level returns the stationary probability vector v_j over modes.
	Level(j int) []float64
	// LevelProb returns P(j jobs present).
	LevelProb(j int) float64
	// MeanQueue returns the mean number of jobs L.
	MeanQueue() float64
	// ModeMarginals returns Σ_j v_j.
	ModeMarginals() []float64
	// TotalProbability returns Σ_j v_j·1 (≈1 for exact methods).
	TotalProbability() float64
	// TailDecay returns the geometric decay rate of the queue-length tail.
	TailDecay() float64
}

var (
	_ Solution = (*SpectralSolution)(nil)
	_ Solution = (*MGSolution)(nil)
	_ Solution = (*ApproxSolution)(nil)
	_ Solution = (*TruncatedSolution)(nil)
)

// BalanceResidual evaluates the maximum absolute residual of the global
// balance equations (eq. 14) over levels 0..maxLevel:
//
//	v_j(Dᴬ + B + C_j) − v_{j−1}B − v_jA − v_{j+1}C_{j+1}
//
// For an exact stationary solution this is zero to machine precision at
// every level; the test suite uses it as the definitive correctness check.
func BalanceResidual(p Params, sol Solution, maxLevel int) float64 {
	s := p.Size()
	a := p.EnvMatrix()
	da := a.RowSums()
	var worst float64
	prev := make([]float64, s) // v_{−1} = 0
	cur := sol.Level(0)
	for j := 0; j <= maxLevel; j++ {
		next := sol.Level(j + 1)
		cj := p.serviceAt(j)
		cnext := p.serviceAt(j + 1)
		through := a.VecTimes(cur) // (v_j·A)
		for i := 0; i < s; i++ {
			res := cur[i]*(da[i]+p.Lambda+cj[i]) -
				prev[i]*p.Lambda -
				through[i] -
				next[i]*cnext[i]
			if a := math.Abs(res); a > worst {
				worst = a
			}
		}
		prev, cur = cur, next
	}
	return worst
}

// QueueCCDF returns P(queue ≥ j) for j = 0..maxJ as a slice.
func QueueCCDF(sol Solution, maxJ int) []float64 {
	out := make([]float64, maxJ+1)
	// Build from the PMF for solver-independence.
	total := sol.TotalProbability()
	acc := 0.0
	for j := 0; j <= maxJ; j++ {
		out[j] = total - acc
		acc += sol.LevelProb(j)
	}
	return out
}
