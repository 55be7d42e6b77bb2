package qbd

import (
	"fmt"

	"repro/internal/linalg"
)

// boundaryStages computes the elimination matrices S_0..S_{upTo−1} with
// v_j = v_{j+1}·S_j, obtained by folding the balance equations (eq. 14) for
// levels 0..upTo−1 into the recursion
//
//	K_j = Dᴬ + B + C_j − A − λ·S_{j−1},   S_j = C_{j+1}·K_j⁻¹,
//
// with S_{−1} = 0, B = λI and A = p.EnvMatrix(). This reduces the boundary
// problem from a dense (N+1)s×(N+1)s solve to upTo s×s factorisations —
// the difference between O((Ns)³) and O(N·s³) that makes the larger
// Figure 5 sweeps tractable.
func boundaryStages(p Params, a *linalg.Matrix, upTo int) ([]*linalg.Matrix, error) {
	s := p.Size()
	da := a.RowSums()
	stages := make([]*linalg.Matrix, upTo)
	var prev *linalg.Matrix // S_{j−1}
	for j := 0; j < upTo; j++ {
		k := a.Scaled(-1)
		cj := p.serviceAt(j)
		for i := 0; i < s; i++ {
			k.Add(i, i, da[i]+p.Lambda+cj[i])
		}
		if prev != nil {
			k = k.Minus(prev.Scaled(p.Lambda))
		}
		kinv, err := linalg.Inverse(k)
		if err != nil {
			return nil, fmt.Errorf("qbd: boundary stage %d is singular: %w", j, err)
		}
		scaleRows(kinv, p.serviceAt(j+1))
		stages[j] = kinv
		prev = kinv
	}
	return stages, nil
}

// scaleRows turns K⁻¹ into C·K⁻¹ in place for the diagonal C = diag(c), as
// linalg.Matrix.Times would from a zeroed product: an entry becomes
// 0 + c_i·k_ij (which turns a −0 product into +0), and a zero c_i leaves a
// zero row.
func scaleRows(m *linalg.Matrix, c []float64) {
	for i, ci := range c {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		if ci == 0 {
			clear(row)
			continue
		}
		for j, v := range row {
			row[j] = 0 + ci*v
		}
	}
}

// foldBoundary propagates a level vector vTop at level `upTo` down through
// the stages, returning levels[j] = vTop·S_{upTo−1}···S_j for j < upTo.
func foldBoundary(stages []*linalg.Matrix, vTop []float64) [][]float64 {
	n := len(stages)
	levels := make([][]float64, n)
	cur := vTop
	for j := n - 1; j >= 0; j-- {
		cur = stages[j].VecTimes(cur) // row-vector product cur·S_j
		levels[j] = cur
	}
	return levels
}

func vecSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
