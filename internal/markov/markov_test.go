package markov

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/qbd"
)

var (
	paperOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	paperRepair = dist.Exp(25)
)

// lumpedA returns the environment's transition matrix A as qbd lumps env's
// server description, the way core.System.Params hands it over.
func lumpedA(t *testing.T, env *Env) *linalg.Matrix {
	t.Helper()
	p := qbd.Params{
		Lambda:      1,
		ServiceDiag: env.ServiceDiag(1),
		Servers:     &qbd.Servers{G: env.ServerRates(), Rates: env.PhaseServiceRates(1), Counts: env.PhaseCounts()},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p.EnvMatrix()
}

func TestNumModesFormula(t *testing.T) {
	cases := []struct {
		n, op, rep int
		want       int
	}{
		{2, 2, 1, 6},    // the paper's worked example
		{10, 2, 1, 66},  // (N+2)(N+1)/2 for n=2, m=1 (paper §4)
		{1, 1, 1, 2},    // single unreliable exponential server
		{3, 1, 1, 4},    // N+1 modes for fully exponential case
		{2, 2, 2, 10},   // C(5,3)
		{24, 2, 1, 325}, // the paper's reported numerical limit region
	}
	for _, c := range cases {
		if got := NumModes(c.n, c.op, c.rep); got != c.want {
			t.Errorf("NumModes(%d,%d,%d) = %d, want %d", c.n, c.op, c.rep, got, c.want)
		}
	}
}

func TestEnvEnumerationMatchesPaperExample(t *testing.T) {
	// Paper §3.1: N=2, n=2, m=1 gives 6 modes in this exact order.
	env, err := NewEnv(2, paperOps, paperRepair)
	if err != nil {
		t.Fatal(err)
	}
	if env.NumModes() != 6 {
		t.Fatalf("s = %d, want 6", env.NumModes())
	}
	wantOrder := []struct {
		x []int
		y []int
	}{
		{[]int{0, 0}, []int{2}}, // i=0: 2 inoperative
		{[]int{1, 0}, []int{1}}, // i=1: 1 op phase 1, 1 inoperative
		{[]int{0, 1}, []int{1}}, // i=2: 1 op phase 2, 1 inoperative
		{[]int{2, 0}, []int{0}}, // i=3: 2 op phase 1
		{[]int{1, 1}, []int{0}}, // i=4: 1 op phase 1, 1 op phase 2
		{[]int{0, 2}, []int{0}}, // i=5: 2 op phase 2
	}
	for i, w := range wantOrder {
		m := env.Mode(i)
		for j := range w.x {
			if m.X[j] != w.x[j] {
				t.Errorf("mode %d: X = %v, want %v", i, m.X, w.x)
			}
		}
		for k := range w.y {
			if m.Y[k] != w.y[k] {
				t.Errorf("mode %d: Y = %v, want %v", i, m.Y, w.y)
			}
		}
	}
}

func TestAMatrixMatchesPaperExample(t *testing.T) {
	// The displayed A matrix for N=2, n=2, m=1 (paper §3.1), with
	// ξ1, ξ2 the operative rates, η the repair rate, α1, α2 the weights,
	// as qbd lumps the example's server description.
	a1, a2 := 0.7246, 0.2754
	x1, x2 := 0.1663, 0.0091
	eta := 25.0
	env, err := NewEnv(2, paperOps, paperRepair)
	if err != nil {
		t.Fatal(err)
	}
	got := lumpedA(t, env)
	want := linalg.FromRows([][]float64{
		{0, 2 * eta * a1, 2 * eta * a2, 0, 0, 0},
		{x1, 0, 0, eta * a1, eta * a2, 0},
		{x2, 0, 0, 0, eta * a1, eta * a2},
		{0, 2 * x1, 0, 0, 0, 0},
		{0, x2, x1, 0, 0, 0},
		{0, 0, 2 * x2, 0, 0, 0},
	})
	if !got.Equalish(want, 1e-12) {
		t.Fatalf("A mismatch:\ngot\n%v\nwant\n%v", got, want)
	}
}

func TestServiceDiagMatchesPaperExample(t *testing.T) {
	// The displayed C_j for the example: diag(µ_{0,j}, µ_{1,j}, µ_{1,j},
	// µ_{2,j}, µ_{2,j}, µ_{2,j}) with µ_{i,j} = min(i,j)µ.
	env, err := NewEnv(2, paperOps, paperRepair)
	if err != nil {
		t.Fatal(err)
	}
	mu := 1.5
	sd := env.ServiceDiag(mu)
	if len(sd) != 3 {
		t.Fatalf("levels = %d, want 3", len(sd))
	}
	wantX := []int{0, 1, 1, 2, 2, 2}
	for j := 0; j <= 2; j++ {
		for i, x := range wantX {
			want := float64(min(j, x)) * mu
			if sd[j][i] != want {
				t.Errorf("C_%d[%d] = %v, want %v", j, i, sd[j][i], want)
			}
		}
	}
	// C_0 must be identically zero.
	for i, v := range sd[0] {
		if v != 0 {
			t.Errorf("C_0[%d] = %v, want 0", i, v)
		}
	}
}

func TestAMatrixRowSumsAreExitRates(t *testing.T) {
	// Every mode's total outgoing rate is Σ x_j·ξ_j + Σ y_k·η_k.
	env, err := NewEnv(4, paperOps, paperRepair)
	if err != nil {
		t.Fatal(err)
	}
	rows := lumpedA(t, env).RowSums()
	for i, m := range env.Modes() {
		var want float64
		for j, xj := range m.X {
			want += float64(xj) * paperOps.Rates[j]
		}
		for k, yk := range m.Y {
			want += float64(yk) * paperRepair.Rates[k]
		}
		if math.Abs(rows[i]-want) > 1e-10 {
			t.Errorf("mode %d (%v): row sum %v, want %v", i, m, rows[i], want)
		}
	}
}

func TestAMatrixDiagonalZero(t *testing.T) {
	env, err := NewEnv(5, paperOps, paperRepair)
	if err != nil {
		t.Fatal(err)
	}
	a := lumpedA(t, env)
	for i := 0; i < a.Rows; i++ {
		if a.At(i, i) != 0 {
			t.Errorf("A[%d][%d] = %v, want 0", i, i, a.At(i, i))
		}
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(0, paperOps, paperRepair); err == nil {
		t.Error("expected error for N = 0")
	}
	if _, err := NewEnv(2, nil, paperRepair); err == nil {
		t.Error("expected error for nil distribution")
	}
}
