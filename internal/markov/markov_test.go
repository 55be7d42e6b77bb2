package markov

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/qbd"
)

var (
	paperOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	paperRepair = dist.Exp(25)
)

// servers describes n servers with operative periods op and repairs rep,
// served at mu, the way core.System.Params hands them to qbd.
func servers(n int, op, rep *dist.HyperExp, mu float64) *qbd.Servers {
	return &qbd.Servers{G: ServerRates(op, rep), Rates: PhaseServiceRates(op, rep, mu), N: n}
}

// lumpedA returns the environment's transition matrix A as qbd lumps the
// description of n servers.
func lumpedA(t *testing.T, n int, op, rep *dist.HyperExp) *linalg.Matrix {
	t.Helper()
	d := servers(n, op, rep, 1)
	p := qbd.Params{
		Lambda:      1,
		ServiceDiag: ServiceDiag(Operative(d.Modes(), op.Phases()), n, 1),
		Servers:     d,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p.EnvMatrix()
}

// hyper returns a hyperexponential of the given number of phases with
// equal weights and distinct rates.
func hyper(phases int) *dist.HyperExp {
	w, r := make([]float64, phases), make([]float64, phases)
	for i := range w {
		w[i], r[i] = 1/float64(phases), float64(i+1)
	}
	return dist.MustHyperExp(w, r)
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
		d := servers(c.n, hyper(c.op), hyper(c.rep), 1)
		if got := len(d.Modes()); got != c.want {
			t.Errorf("%d servers, %d+%d phases: %d modes, want %d", c.n, c.op, c.rep, got, c.want)
		}
		if got := qbd.NumModes(c.n, c.op+c.rep); got != c.want {
			t.Errorf("NumModes(%d, %d) = %d, want %d", c.n, c.op+c.rep, got, c.want)
		}
	}
}

func TestEnvEnumerationMatchesPaperExample(t *testing.T) {
	// Paper §3.1: N=2, n=2, m=1 gives 6 modes in this exact order, each
	// the operative phase counts followed by the inoperative ones.
	want := [][]int{
		{0, 0, 2}, // i=0: 2 inoperative
		{1, 0, 1}, // i=1: 1 op phase 1, 1 inoperative
		{0, 1, 1}, // i=2: 1 op phase 2, 1 inoperative
		{2, 0, 0}, // i=3: 2 op phase 1
		{1, 1, 0}, // i=4: 1 op phase 1, 1 op phase 2
		{0, 2, 0}, // i=5: 2 op phase 2
	}
	modes := servers(2, paperOps, paperRepair, 1).Modes()
	if len(modes) != len(want) {
		t.Fatalf("s = %d, want %d", len(modes), len(want))
	}
	for i, w := range want {
		for p := range w {
			if modes[i][p] != w[p] {
				t.Errorf("mode %d: %v, want %v", i, modes[i], w)
				break
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
	got := lumpedA(t, 2, paperOps, paperRepair)
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
	mu := 1.5
	xs := Operative(servers(2, paperOps, paperRepair, mu).Modes(), paperOps.Phases())
	sd := ServiceDiag(xs, 2, mu)
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
	rows := lumpedA(t, 4, paperOps, paperRepair).RowSums()
	nOp := paperOps.Phases()
	for i, m := range servers(4, paperOps, paperRepair, 1).Modes() {
		var want float64
		for j, xj := range m[:nOp] {
			want += float64(xj) * paperOps.Rates[j]
		}
		for k, yk := range m[nOp:] {
			want += float64(yk) * paperRepair.Rates[k]
		}
		if math.Abs(rows[i]-want) > 1e-10 {
			t.Errorf("mode %d (%v): row sum %v, want %v", i, m, rows[i], want)
		}
	}
}

func TestAMatrixDiagonalZero(t *testing.T) {
	a := lumpedA(t, 5, paperOps, paperRepair)
	for i := 0; i < a.Rows; i++ {
		if a.At(i, i) != 0 {
			t.Errorf("A[%d][%d] = %v, want 0", i, i, a.At(i, i))
		}
	}
}

// TestServerDescriptionValidation: qbd accepts the paper's server and
// rejects the same server with no servers in the system.
func TestServerDescriptionValidation(t *testing.T) {
	if _, err := servers(2, paperOps, paperRepair, 1).Capacity(); err != nil {
		t.Errorf("paper server rejected: %v", err)
	}
	if _, err := servers(0, paperOps, paperRepair, 1).Capacity(); err == nil {
		t.Error("expected error for N = 0")
	}
}

// TestModesFollowPaperOrder: for 1–3 operative × 1–3 repair phases and
// N = 1..12, qbd's modes are every vector of phase counts summing to N,
// in §3's order — ascending number of operative servers, then descending
// lexicographic order. Consecutive modes strictly in that order are
// distinct, so C(N+k−1, k−1) of them summing to N are all the modes.
func TestModesFollowPaperOrder(t *testing.T) {
	for nOp := 1; nOp <= 3; nOp++ {
		for nRep := 1; nRep <= 3; nRep++ {
			op, rep := hyper(nOp), hyper(nRep)
			for n := 1; n <= 12; n++ {
				modes := servers(n, op, rep, 1).Modes()
				if want := qbd.NumModes(n, nOp+nRep); len(modes) != want {
					t.Fatalf("%d+%d phases, N=%d: %d modes, want %d", nOp, nRep, n, len(modes), want)
				}
				xs := Operative(modes, nOp)
				for i, m := range modes {
					total := 0
					for _, c := range m {
						if c < 0 {
							t.Fatalf("%d+%d phases, N=%d: mode %d = %v", nOp, nRep, n, i, m)
						}
						total += c
					}
					if total != n {
						t.Fatalf("%d+%d phases, N=%d: mode %d = %v counts %d servers", nOp, nRep, n, i, m, total)
					}
					if i > 0 && !(xs[i-1] < xs[i] || xs[i-1] == xs[i] && slices.Compare(modes[i-1], m) > 0) {
						t.Fatalf("%d+%d phases, N=%d: mode %d = %v follows %v", nOp, nRep, n, i, m, modes[i-1])
					}
				}
			}
		}
	}
}
