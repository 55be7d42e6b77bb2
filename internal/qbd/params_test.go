package qbd

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// TestLumpingMatchesReference: the one lumping of a server description,
// Servers.lump, must give exactly the A that referenceA builds on its own,
// entry by entry and bit for bit, on every factoredEnvs model at
// N ∈ {1, 2, 3, 6, 10} and on productFormParams' draws for seeds 1–10.
// Each mode's moves must be in ascending target order, and the hoist's
// Dᴬ, summed from them, must equal the reference's RowSums bit for bit.
func TestLumpingMatchesReference(t *testing.T) {
	type model struct {
		name string
		p    Params
	}
	var models []model
	for _, e := range factoredEnvs {
		for _, n := range []int{1, 2, 3, 6, 10} {
			models = append(models, model{fmt.Sprintf("%s N=%d", e.name, n), paramsFor(t, n, 1, 1, e.op, e.rep)})
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		p, _, _ := productFormParams(seed)
		models = append(models, model{fmt.Sprintf("productFormParams(%d)", seed), p})
	}
	for _, m := range models {
		want := referenceA(m.p.Servers)
		got := m.p.EnvMatrix()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: A is %d×%d, reference %d×%d", m.name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: A[%d][%d] = %v, reference %v", m.name, i/want.Cols, i%want.Cols, got.Data[i], v)
			}
		}
		sv, err := NewSweepSolver(m.p)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for i := 0; i < sv.Size(); i++ {
			row := sv.env.row(i)
			if !slices.IsSortedFunc(row, func(a, b move) int { return a.to - b.to }) {
				t.Fatalf("%s: mode %d's moves are not in ascending target order: %v", m.name, i, row)
			}
		}
		for i, v := range want.RowSums() {
			if math.Float64bits(sv.env.da[i]) != math.Float64bits(v) {
				t.Fatalf("%s: Dᴬ[%d] = %v, reference row sum %v", m.name, i, sv.env.da[i], v)
			}
		}
	}
}

// TestCapacityMatchesEnvStationary: the hoist's capacity N·Σ_p π_p·r_p,
// from one server's stationary distribution, must agree with
// Σ_i π_i·C_N[i] from EnvStationary's dense null vector of the same
// lumped A to 1e-14 relative, on every factoredEnvs model at each N up to
// its maxN (at most 20). Servers.Capacity and Params.Load must take the
// same capacity bit for bit, so the spectral solvers, those that check
// Load (MG, the dense oracle) and core, which asks Servers.Capacity, draw
// the stability boundary at one λ.
func TestCapacityMatchesEnvStationary(t *testing.T) {
	var worst float64
	for _, e := range factoredEnvs {
		for n := 1; n <= min(e.maxN, 20); n++ {
			p := paramsFor(t, n, 1, 1, e.op, e.rep)
			sv, err := NewSweepSolver(p)
			if err != nil {
				t.Fatalf("%s N=%d: %v", e.name, n, err)
			}
			pi, err := p.EnvStationary()
			if err != nil {
				t.Fatalf("%s N=%d: %v", e.name, n, err)
			}
			var dense float64
			for i, c := range p.cTop() {
				dense += pi[i] * c
			}
			if c, err := p.Servers.Capacity(); err != nil || c != sv.Capacity() {
				t.Fatalf("%s N=%d: Servers.Capacity = %v, %v; the hoist's is %v", e.name, n, c, err, sv.Capacity())
			}
			if load, err := p.Load(); err != nil || load != p.Lambda/sv.Capacity() {
				t.Fatalf("%s N=%d: Load = %v, %v; the hoist's capacity gives %v", e.name, n, load, err, p.Lambda/sv.Capacity())
			}
			d := math.Abs(sv.Capacity()-dense) / dense
			if d > 1e-14 {
				t.Errorf("%s N=%d: capacity %v, EnvStationary's %v (rel %.1e)", e.name, n, sv.Capacity(), dense, d)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("largest relative difference: %.1e", worst)
}

// TestModeRanking: for k = 1..5 counts and totals 0..12, nextComposition
// starts at (t, 0, …, 0), visits C(t+k−1, k−1) vectors in strictly
// descending lexicographic order and ends at (0, …, 0, t), and each
// vector's rank is its visit index.
func TestModeRanking(t *testing.T) {
	for k := 1; k <= 5; k++ {
		ranks := newRankTable(k, 12)
		for total := 0; total <= 12; total++ {
			n := make([]int, k)
			n[0] = total
			var prev []int
			visits := 0
			for more := true; more; more = nextComposition(n) {
				if prev != nil && slices.Compare(prev, n) <= 0 {
					t.Fatalf("k=%d total %d: %v follows %v", k, total, n, prev)
				}
				if r := ranks.rank(n); r != visits {
					t.Fatalf("k=%d total %d: %v ranks %d, visited %d-th", k, total, n, r, visits)
				}
				prev = slices.Clone(n)
				visits++
			}
			if want := NumModes(total, k); visits != want || prev[k-1] != total {
				t.Fatalf("k=%d total %d: %d vectors ending at %v, want %d ending at (0, …, 0, %d)", k, total, visits, prev, want, total)
			}
		}
	}
}

// TestTooManyModes: a mode count past the int32 tables' limit is an error
// that names the limit, before any diagonal is read or any mode
// enumerated, from Validate, NewSweepSolver and SolveApprox, while
// Capacity, which needs no mode, still answers. NumModes saturates rather
// than wrapping: C(1009, 9) and C(219, 19) exceed an int.
func TestTooManyModes(t *testing.T) {
	for _, c := range []struct{ n, k int }{{1000, 10}, {200, 20}} {
		if got := NumModes(c.n, c.k); got != math.MaxInt {
			t.Errorf("NumModes(%d, %d) = %d, want math.MaxInt", c.n, c.k, got)
		}
		g := linalg.NewMatrix(c.k, c.k)
		for q := 1; q < c.k; q++ {
			g.Set(0, q, 1)
			g.Set(q, 0, 1)
		}
		rates := make([]float64, c.k)
		rates[0] = 1
		p := Params{Lambda: 1, ServiceDiag: [][]float64{{1}, {1}}, Servers: &Servers{G: g, Rates: rates, N: c.n}}
		want := fmt.Sprintf("more than %d modes", math.MaxInt32)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d servers of %d phases: Validate returned %v, want %q", c.n, c.k, err, want)
		}
		if _, got := NewSweepSolver(p); got == nil || got.Error() != err.Error() {
			t.Errorf("%d servers of %d phases: NewSweepSolver returned %v, want %v", c.n, c.k, got, err)
		}
		if _, got := SolveApprox(p); got == nil || got.Error() != err.Error() {
			t.Errorf("%d servers of %d phases: SolveApprox returned %v, want %v", c.n, c.k, got, err)
		}
		if capacity, err := p.Servers.Capacity(); err != nil || !(capacity > 0) {
			t.Errorf("%d servers of %d phases: Capacity = %v, %v; want a positive capacity", c.n, c.k, capacity, err)
		}
	}
}
