package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// TruncatedSolution is the exact stationary distribution of the chain
// truncated at a finite maximum level (arrivals blocked there). With the
// truncation level far above the working range it serves as an independent
// oracle for the spectral and matrix-geometric solutions.
type TruncatedSolution struct {
	levels [][]float64
	s      int
}

// SolveTruncated solves the queue truncated at maxLevel by block-tridiagonal
// elimination: the same S_j recursion as the infinite-queue boundary
// (the balance equations below the truncation level are identical), closed
// by the level-maxLevel equation, which lacks the arrival outflow term.
func SolveTruncated(p Params, maxLevel int) (*TruncatedSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if maxLevel < 1 {
		return nil, fmt.Errorf("qbd: truncation level %d < 1", maxLevel)
	}
	s := p.Size()
	a := p.EnvMatrix()
	stages, err := boundaryStages(p, a, maxLevel)
	if err != nil {
		return nil, err
	}
	// Balance at the truncation level J (no λ outflow):
	// v_J(Dᴬ + C_J − A − λS_{J−1}) = 0.
	da := a.RowSums()
	cj := p.serviceAt(maxLevel)
	w := a.Scaled(-1)
	for i := 0; i < s; i++ {
		w.Add(i, i, da[i]+cj[i])
	}
	w = w.Minus(stages[maxLevel-1].Scaled(p.Lambda))
	vTop, err := linalg.ForcedLeftNullVector(w)
	if err != nil {
		return nil, fmt.Errorf("qbd: truncated top-level system: %w", err)
	}
	// Folding down from a deep truncation amplifies each level by roughly
	// 1/z per step, which overflows float64 long before the truncation is
	// deep enough to matter at light loads. Renormalise per level and track
	// the scale in log space instead.
	levels := make([][]float64, maxLevel+1)
	logScale := make([]float64, maxLevel+1)
	cur := append([]float64(nil), vTop...)
	normalizeL1(cur)
	levels[maxLevel] = cur
	for j := maxLevel - 1; j >= 0; j-- {
		cur = stages[j].VecTimes(cur)
		m := normalizeL1(cur)
		if m == 0 {
			return nil, errors.New("qbd: truncated fold collapsed to zero")
		}
		logScale[j] = logScale[j+1] + math.Log(m)
		levels[j] = cur
	}
	maxLog := logScale[0]
	for _, l := range logScale {
		if l > maxLog {
			maxLog = l
		}
	}
	var total float64
	for j, lv := range levels {
		f := math.Exp(logScale[j] - maxLog)
		for i := range lv {
			lv[i] *= f
		}
		total += vecSum(lv)
	}
	if total == 0 || math.IsNaN(total) {
		return nil, errors.New("qbd: degenerate total probability in truncated assembly")
	}
	// The null vector's overall sign is arbitrary; dividing by the (possibly
	// negative) total fixes it.
	for _, lv := range levels {
		for i := range lv {
			lv[i] /= total
		}
	}
	return &TruncatedSolution{levels: levels, s: s}, nil
}

// normalizeL1 scales v to unit 1-norm of its positive mass and returns the
// scale, preserving signs (a correct stationary fold stays non-negative;
// sign noise remains visible to the total-probability check).
func normalizeL1(v []float64) float64 {
	var m float64
	for _, x := range v {
		m += math.Abs(x)
	}
	if m == 0 {
		return 0
	}
	for i := range v {
		v[i] /= m
	}
	return m
}

// MaxLevel returns the truncation level.
func (t *TruncatedSolution) MaxLevel() int { return len(t.levels) - 1 }

// Level returns v_j (zero beyond the truncation).
func (t *TruncatedSolution) Level(j int) []float64 {
	if j < 0 || j >= len(t.levels) {
		return make([]float64, t.s)
	}
	return append([]float64(nil), t.levels[j]...)
}

// LevelProb returns P(j jobs present).
func (t *TruncatedSolution) LevelProb(j int) float64 {
	if j < 0 || j >= len(t.levels) {
		return 0
	}
	return vecSum(t.levels[j])
}

// MeanQueue returns L over the truncated support.
func (t *TruncatedSolution) MeanQueue() float64 {
	var l float64
	for j, lv := range t.levels {
		l += float64(j) * vecSum(lv)
	}
	return l
}

// ModeMarginals returns Σ_j v_j.
func (t *TruncatedSolution) ModeMarginals() []float64 {
	out := make([]float64, t.s)
	for _, lv := range t.levels {
		for i, v := range lv {
			out[i] += v
		}
	}
	return out
}

// TotalProbability returns Σ_j v_j·1 (1 by construction).
func (t *TruncatedSolution) TotalProbability() float64 {
	return vecSum(t.ModeMarginals())
}

// TailDecay estimates the geometric decay from the top two level masses.
func (t *TruncatedSolution) TailDecay() float64 {
	j := len(t.levels) - 2
	if j < 1 {
		return 0
	}
	a, b := vecSum(t.levels[j-1]), vecSum(t.levels[j])
	if a <= 0 {
		return 0
	}
	return b / a
}
