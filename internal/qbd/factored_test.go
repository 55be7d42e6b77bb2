package qbd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/linalg"
)

// factoredEnvs are the server models the factored stage is checked on:
// the paper's Sun fit (H2 operative, Exp(25) repairs), the classical
// Exp/Exp model, Sun with slow repairs (η = 0.2), H2 repairs (k = 4), H3
// operative with H2 repairs (k = 5), and an H2 whose two rates are equal,
// so two eigen-branches are identical up to their labels. maxN keeps the
// companion oracle's 2s×2s eigensolve affordable.
var factoredEnvs = []struct {
	name    string
	op, rep *dist.HyperExp
	maxN    int
}{
	{"sun", paperOps, paperRepair, 20},
	{"exp/exp", dist.Exp(0.05), dist.Exp(2), 20},
	{"sun η=0.2", paperOps, dist.Exp(0.2), 20},
	{"h2+h2", paperOps, dist.MustHyperExp([]float64{0.6, 0.4}, []float64{40, 5}), 10},
	{"h3+h2", dist.MustHyperExp([]float64{0.5, 0.3, 0.2}, []float64{0.3, 0.05, 0.01}),
		dist.MustHyperExp([]float64{0.6, 0.4}, []float64{40, 5}), 8},
	{"equal-rate h2", dist.MustHyperExp([]float64{0.4, 0.6}, []float64{0.05, 0.05}), dist.Exp(2), 20},
}

// atLoad returns p with λ set for the given offered load of the capacity
// Σ_i π_i·C_N[i] that EnvStationary's dense π gives, the λ the pinned
// numbers were recorded at. Params.Load's closed-form capacity differs
// from it in the last bits, and at load 0.999 one ulp of λ moves L by
// several parts in 10¹².
func atLoad(t testing.TB, p Params, load float64) Params {
	t.Helper()
	pi, err := p.EnvStationary()
	if err != nil {
		t.Fatal(err)
	}
	var capacity float64
	for i, c := range p.cTop() {
		capacity += pi[i] * c
	}
	p.Lambda = load / (1 / capacity)
	return p
}

// sortedRoots returns a solution's roots in ascending order.
func sortedRoots(sol *SpectralSolution) []float64 {
	out := sol.Eigenvalues()
	slices.Sort(out)
	return out
}

// maxVectorResidual returns the largest relative residual
// ‖u·Q(z)‖∞ / (‖u‖∞·‖Q(z)‖₁) over a solution's terms, ‖·‖₁ being the
// largest column sum, the norm ‖u·Q‖∞ ≤ ‖u‖∞·‖Q‖₁ is bounded by. Off the
// diagonal Q(z) = z·A with z > 0 and A ≥ 0, so u·Q(z) is z·(u·A) plus the
// diagonal's term, and column j of Q(z) sums in absolute value to
// z·Σ_i A[i][j] + |Q[j][j]|: O(s²) work per term, not a matrix build.
func maxVectorResidual(p Params, sol *SpectralSolution) float64 {
	s := p.Size()
	a := p.EnvMatrix()
	da, c := a.RowSums(), p.cTop()
	colA := make([]float64, s) // Σ_i A[i][j]
	for i := 0; i < s; i++ {
		for j, v := range a.Data[i*s : (i+1)*s] {
			colA[j] += v
		}
	}
	var worst float64
	for _, term := range sol.terms {
		z, u := term.z, term.u
		var un, qn, rn float64
		for _, v := range u {
			un = math.Max(un, math.Abs(v))
		}
		for j, ua := range a.VecTimes(u) {
			d := p.Lambda - z*(da[j]+p.Lambda+c[j]) + z*z*c[j] // Q(z)[j][j]
			rn = math.Max(rn, math.Abs(z*ua+u[j]*d))
			qn = math.Max(qn, z*colA[j]+math.Abs(d))
		}
		worst = math.Max(worst, rn/(un*qn))
	}
	return worst
}

// lTol is the relative tolerance two exact methods must meet on L at a
// given load: 1e-9, widened as 5e-11/(1−load) above load 0.95 because a
// root error δz moves L by δz/(1−z_s) there. At load 0.999 the companion
// path sits 1.5e-9 to 6.3e-9 from a deep truncated-chain oracle, which the
// factored path meets to 5e-11.
func lTol(load float64) float64 { return math.Max(1e-9, 5e-11/(1-load)) }

// companionSolve solves p with SolveSpectralDense's companion eigen stage
// (companionTerms) and the staged assembly of a fresh worker. It shares no
// eigen code with the factored stage, whose oracle it is. A complex root
// is companionTerms' error.
func companionSolve(p Params) (*SpectralSolution, error) {
	sv, err := NewSweepSolver(p)
	if err != nil {
		return nil, err
	}
	sol := new(SpectralSolution)
	sol.reshape(p.Threshold(), p.Size())
	if err := companionTerms(p, sol); err != nil {
		return nil, err
	}
	if err := sv.NewWorker().assemble(p.Lambda, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// TestFactoredMatchesCompanion solves every model across N and load by the
// factored stage and by companionSolve — the companion eigensolve it
// replaced — and requires the same root set, the same L, and every
// closed-form vector to be a left null vector of Q(z) to 1e-12 relative. At N = 20 the companion's own roots drift in their
// tight clusters by up to 6e-8 (log|det Q| at them exceeds its value at
// the factored roots by about 17 to 20 nats), so there the residual
// certifies each factored root and the root sets are held to 1e-7. Load
// 0.9999 is solved by the factored stage alone and must still balance to
// 1e-12 with total probability 1 ± 1e-12. Rows with s > 100 run only in
// the plain, unshortened suite.
func TestFactoredMatchesCompanion(t *testing.T) {
	for _, e := range factoredEnvs {
		for _, n := range []int{1, 2, 3, 6, 10, 16, 20} {
			if n > e.maxN {
				continue
			}
			base := paramsFor(t, n, 1, 1, e.op, e.rep)
			if base.Servers == nil {
				t.Fatalf("%s N=%d: no server description", e.name, n)
			}
			if (testing.Short() || raceEnabled) && base.Size() > 100 {
				continue // the companion oracle's eigensolve costs seconds here
			}
			for _, load := range []float64{0.05, 0.5, 0.9, 0.99} {
				p := atLoad(t, base, load)
				fac, err := SolveSpectral(p)
				if err != nil {
					t.Fatalf("%s N=%d load %v: factored: %v", e.name, n, load, err)
				}
				comp, err := companionSolve(p)
				if err != nil {
					t.Fatalf("%s N=%d load %v: companion: %v", e.name, n, load, err)
				}
				rootTol := 1e-9
				if n >= 20 {
					rootTol = 1e-7
				}
				a, b := sortedRoots(fac), sortedRoots(comp)
				for i := range a {
					if d := math.Abs(a[i] - b[i]); d > rootTol {
						t.Errorf("%s N=%d load %v: root %d: factored %v, companion %v (Δ %.1e)", e.name, n, load, i, a[i], b[i], d)
						break
					}
				}
				lf, lc := fac.MeanQueue(), comp.MeanQueue()
				if d := math.Abs(lf-lc) / lc; d > lTol(load) {
					t.Errorf("%s N=%d load %v: L factored %v, companion %v (rel %.1e)", e.name, n, load, lf, lc, d)
				}
				if r := maxVectorResidual(p, fac); r > 1e-12 {
					t.Errorf("%s N=%d load %v: closed-form vector residual %.1e", e.name, n, load, r)
				}
			}
			p := atLoad(t, base, 0.9999)
			sol, err := SolveSpectral(p)
			if err != nil {
				t.Fatalf("%s N=%d load 0.9999: %v", e.name, n, err)
			}
			if r := BalanceResidual(p, sol, n+10); r > 1e-12 {
				t.Errorf("%s N=%d load 0.9999: balance residual %.1e", e.name, n, r)
			}
			if d := math.Abs(sol.TotalProbability() - 1); d > 1e-12 {
				t.Errorf("%s N=%d load 0.9999: total probability off by %.1e", e.name, n, d)
			}
		}
	}
}

// TestFactoredEqualRateH2MatchesExp: an H2 whose two phases share one rate
// is an exponential, so the factored stage — whose two operative branches
// then coincide in everything but their labels — must reproduce the
// exponential model's L.
func TestFactoredEqualRateH2MatchesExp(t *testing.T) {
	eq := dist.MustHyperExp([]float64{0.3, 0.7}, []float64{0.05, 0.05})
	for _, n := range []int{1, 3, 8} {
		for _, load := range []float64{0.3, 0.8, 0.95} {
			ph := atLoad(t, paramsFor(t, n, 1, 1, eq, dist.Exp(2)), load)
			pe := atLoad(t, paramsFor(t, n, 1, 1, dist.Exp(0.05), dist.Exp(2)), load)
			if ph.Servers == nil || pe.Servers == nil {
				t.Fatal("missing server description")
			}
			sh, err := SolveSpectral(ph)
			if err != nil {
				t.Fatal(err)
			}
			se, err := SolveSpectral(pe)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(sh.MeanQueue()-se.MeanQueue()) / se.MeanQueue(); d > 1e-10 {
				t.Errorf("N=%d load %v: equal-rate H2 L %v, Exp L %v (rel %.1e)", n, load, sh.MeanQueue(), se.MeanQueue(), d)
			}
		}
	}
}

// withoutZeroWeights returns d with its zero-weight phases dropped.
func withoutZeroWeights(d *dist.HyperExp) *dist.HyperExp {
	var w, r []float64
	for i, v := range d.Weights {
		if v > 0 {
			w, r = append(w, v), append(r, d.Rates[i])
		}
	}
	return dist.MustHyperExp(w, r)
}

// transientGap returns the smallest gap |θ_j − θ_l|, relative to the
// largest |θ|, that the last solve on w divided by: over every root whose
// multiset uses the branch of a transient phase j, against each branch l
// that enters that branch's left eigenvector (c_l ≠ 0). It is +Inf when no
// vector used a transient branch.
func transientGap(w *SweepWorker) float64 {
	f, fw := w.sv.fac, &w.fac
	k := f.k
	gap := math.Inf(1)
	for _, r := range fw.roots {
		fw.branches(f, r.z)
		var scale float64
		for _, th := range fw.theta {
			scale = math.Max(scale, math.Abs(th))
		}
		for i, m := range f.multiset(r.m) {
			j := f.transientPhase(fw.v, i)
			if m == 0 || j < 0 {
				continue
			}
			for l := 0; l < k; l++ {
				var c float64
				for q, sp := range f.sqrtPi {
					if sp > 0 {
						c += f.g[j*k+q] * fw.v[q*k+l] / sp
					}
				}
				if c != 0 {
					gap = math.Min(gap, math.Abs(fw.theta[i]-fw.theta[l])/scale)
				}
			}
		}
	}
	return gap
}

// checkReducedModel solves p, whose server model has zero-weight phases,
// and reduced, the same queue with those phases dropped. No server ever
// enters a zero-weight phase, so the two must have the same L, to tol
// relative, and the same tail decay z_s, to 1e-13 relative, which the §3.2
// approximation must reproduce too, with its L within tol of the reduced
// model's; p's solution must also balance to 1e-12 over levels 0..N+10,
// and each of its vectors must be a left null vector of Q(z) to 1e-12
// relative. It returns the solve's transientGap.
func checkReducedModel(t testing.TB, what string, p, reduced Params, tol float64) float64 {
	t.Helper()
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	w := sv.NewWorker()
	sol := new(SpectralSolution)
	if err := w.SolveInto(p.Lambda, sol); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	red, err := SolveSpectral(reduced)
	if err != nil {
		t.Fatalf("%s: reduced model: %v", what, err)
	}
	if l, lr := sol.MeanQueue(), red.MeanQueue(); math.Abs(l-lr)/lr > tol {
		t.Errorf("%s: L %v, reduced model %v (rel %.1e)", what, l, lr, math.Abs(l-lr)/lr)
	}
	if r := BalanceResidual(p, sol, p.Threshold()+10); r > 1e-12 {
		t.Errorf("%s: balance residual %.1e", what, r)
	}
	if r := maxVectorResidual(p, sol); r > 1e-12 {
		t.Errorf("%s: vector residual %.1e", what, r)
	}
	zr := red.TailDecay()
	if z := sol.TailDecay(); math.Abs(z-zr) > 1e-13*zr {
		t.Errorf("%s: z_s %v, reduced model %v", what, z, zr)
	}
	ap, err := SolveApprox(p)
	if err != nil {
		t.Fatalf("%s: approximation: %v", what, err)
	}
	apr, err := SolveApprox(reduced)
	if err != nil {
		t.Fatalf("%s: reduced model's approximation: %v", what, err)
	}
	if z := ap.TailDecay(); math.Abs(z-zr) > 1e-13*zr {
		t.Errorf("%s: approximation's z_s %v, reduced model %v", what, z, zr)
	}
	if l, lr := ap.MeanQueue(), apr.MeanQueue(); math.Abs(l-lr)/lr > tol {
		t.Errorf("%s: approximate L %v, reduced model's %v (rel %.1e)", what, l, lr, math.Abs(l-lr)/lr)
	}
	return transientGap(w)
}

// TestZeroWeightPhasesMatchReducedModel: a phase of zero weight is never
// entered, and the factored stage takes it as a transient phase. Each
// model, from N = 1 to 10 and load 0.05 to 0.999, must meet its reduced
// model — the same queue without the zero-weight phases — to 1e-10 on L,
// exact and approximate, and 1e-13 on z_s, with balance and vector
// residuals ≤ 1e-12. Figure 6's C² = 1 member is one such model. In the
// slow repair row the zero-weight phase leaves at rate 0.01, so its branch
// outranks the entered Perron branch near the root and multiset 0 takes a
// spurious z_s ≈ 0.97 that the tail decay and the approximation must pass
// over. The smallest relative branch gap a transient vector divided by is
// logged.
func TestZeroWeightPhasesMatchReducedModel(t *testing.T) {
	fig6, err := dist.HyperExp2FixedShortPhase(34.62, 1, 1/0.1663)
	if err != nil {
		t.Fatal(err)
	}
	if fig6.Phases() != 2 || fig6.Weights[0] != 0 {
		t.Fatalf("Figure 6's C² = 1 member is %v, want operative weights (0, 1)", fig6)
	}
	h2 := []float64{40, 5}
	rows := []struct {
		name    string
		op, rep *dist.HyperExp
	}{
		{"operative (1, 0)", dist.MustHyperExp([]float64{1, 0}, []float64{0.05, 0.3}), dist.Exp(2)},
		{"operative (0, 1), Figure 6 C² = 1", fig6, paperRepair},
		{"repair (1, 0)", paperOps, dist.MustHyperExp([]float64{1, 0}, h2)},
		{"repair (0, 1)", paperOps, dist.MustHyperExp([]float64{0, 1}, h2)},
		{"repair (1, 0), slow zero-weight phase", paperOps, dist.MustHyperExp([]float64{1, 0}, []float64{25, 0.01})},
		{"H3 zero middle weight", dist.MustHyperExp([]float64{0.6, 0, 0.4}, []float64{0.3, 0.05, 0.01}), paperRepair},
		{"zeros on both sides", dist.MustHyperExp([]float64{1, 0}, []float64{0.05, 0.3}), dist.MustHyperExp([]float64{0, 1}, h2)},
	}
	gap := math.Inf(1)
	for _, r := range rows {
		for _, n := range []int{1, 2, 5, 10} {
			for _, load := range []float64{0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.999} {
				p := atLoad(t, paramsFor(t, n, 1, 1, r.op, r.rep), load)
				reduced := paramsFor(t, n, p.Lambda, 1, withoutZeroWeights(r.op), withoutZeroWeights(r.rep))
				what := fmt.Sprintf("%s N=%d load %v", r.name, n, load)
				gap = math.Min(gap, checkReducedModel(t, what, p, reduced, 1e-10))
			}
		}
	}
	t.Logf("smallest relative branch gap a transient vector divided by: %.2e", gap)
}

// TestMultisetRootErrors drives the root finder where its bracket has no
// sign change: the all-Perron multiset past the stability limit, and the
// other multisets at a rate that is not positive. Each must be an error
// wrapping ErrEigenCount that names the multiset, never a root.
func TestMultisetRootErrors(t *testing.T) {
	p := paramsFor(t, 3, 1, 1, paperOps, paperRepair)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	f, fw := sv.fac, &sv.NewWorker().fac
	if z, err := fw.multisetRoot(f, 0.5*f.capacity, 0); err != nil || !(z > 0 && z < 1) {
		t.Fatalf("stable Perron root: %v, %v", z, err)
	}
	cases := []struct {
		lambda float64
		mi     int
		name   string
	}{
		{1.2 * f.capacity, 0, "[3 0 0]"},
		{f.capacity, 0, "[3 0 0]"},
		{-1, 4, "[1 1 1]"},
		{math.NaN(), 9, "[0 0 3]"},
	}
	for _, c := range cases {
		z, err := fw.multisetRoot(f, c.lambda, c.mi)
		if !errors.Is(err, ErrEigenCount) {
			t.Fatalf("λ=%v multiset %d: got %v, %v; want ErrEigenCount", c.lambda, c.mi, z, err)
		}
		if !strings.Contains(err.Error(), "multiset "+c.name) {
			t.Errorf("λ=%v: error %q does not name multiset %s", c.lambda, err, c.name)
		}
	}
}

// TestNewSweepSolverRejectsWrongDescription: a server description that is
// malformed, does not reproduce C_N or whose server is not reversible
// fails construction instead of solving a different queue.
func TestNewSweepSolverRejectsWrongDescription(t *testing.T) {
	good := paramsFor(t, 3, 1, 1, paperOps, paperRepair)
	if _, err := NewSweepSolver(good); err != nil {
		t.Fatalf("valid description rejected: %v", err)
	}
	mutate := map[string]func(d *Servers){
		"wrong service rate": func(d *Servers) { d.Rates[0] *= 2 },
		"missing phase":      func(d *Servers) { d.G = linalg.NewMatrix(2, 2); d.Rates = d.Rates[:2] },
		"not reversible":     func(d *Servers) { d.G.Set(0, 1, 0.01) },
		"other server count": func(d *Servers) { d.N-- },
		"no servers":         func(d *Servers) { d.N = 0 },
	}
	// A cyclic server (0 → 1 → 2 → 0) is described exactly, but is not
	// reversible: its eigen-branches are complex.
	cyc := linalg.FromRows([][]float64{{0, 1, 0}, {0, 0, 2}, {3, 0, 0}})
	if _, err := NewSweepSolver(lumpedParams(cyc, []float64{1, 1, 0}, 3)); err == nil ||
		!strings.Contains(err.Error(), "not reversible") {
		t.Errorf("cyclic server: got %v, want a not-reversible error", err)
	}
	for name, m := range mutate {
		p := good
		d := &Servers{G: good.Servers.G.Clone(), Rates: slices.Clone(good.Servers.Rates), N: good.Servers.N}
		m(d)
		p.Servers = d
		if _, err := NewSweepSolver(p); err == nil {
			t.Errorf("%s: NewSweepSolver accepted the description", name)
		}
	}
}

// TestLargeNRegression pins L at N = 22 and 24, where the forced null
// vector's old relative rank cut-off (1e-10 of the first pivot) ended the
// level-N matching system's elimination early and returned 15.5730,
// 16.8849 and 39.8 without an error. Oracle constants, recorded once:
// N = 22 and 24 at load 0.7 are the values on which SolveMatrixGeometric
// (balance residual 6.0e-13 and 5.6e-13) and SolveTruncated(p, 400) agree
// to 1.5e-12 and 2.5e-12 relative. N = 24 at load 0.99 is
// SolveMatrixGeometric's with its stopping tolerance lowered to 1e-15
// (balance residual 9.9e-14, ten minutes; at its 1e-13 it stops 3.7e-9
// short), which the companion path meets to 8.9e-11; the truncated chain
// would need ~3000 levels, 2.5 GB of stages. No oracle runs at test time.
func TestLargeNRegression(t *testing.T) {
	for _, c := range []struct {
		n          int
		load, want float64
	}{
		{22, 0.7, 15.56965470517},
		{24, 0.7, 16.94138376242},
		{24, 0.99, 117.08014722829},
	} {
		p := atLoad(t, paramsFor(t, c.n, 1, 1, paperOps, paperRepair), c.load)
		sol, err := SolveSpectral(p)
		if err != nil {
			t.Fatalf("N=%d load %v: %v", c.n, c.load, err)
		}
		if d := math.Abs(sol.MeanQueue()-c.want) / c.want; d > 1e-9 {
			t.Errorf("N=%d load %v: L = %.12g, oracle %.12g (rel %.1e)", c.n, c.load, sol.MeanQueue(), c.want, d)
		}
		if r := BalanceResidual(p, sol, c.n+10); r > 1e-12 {
			t.Errorf("N=%d load %v: balance residual %.1e", c.n, c.load, r)
		}
		if d := math.Abs(sol.TotalProbability() - 1); d > 1e-12 {
			t.Errorf("N=%d load %v: total probability off by %.1e", c.n, c.load, d)
		}
	}
}

// productFormParams draws a product-form environment — N in 1..12, one to
// three operative and one or two repair phases — with λ at a load in
// (0.01, 0.999). N is lowered until s ≤ 120 so the companion oracle stays
// cheap. Each phase weight is then set to exactly 0 with probability ¼,
// keeping one positive weight per distribution; such a draw also returns
// its reduced model, the same queue without the zero-weight phases. The
// zero weights are drawn last, so no other value a seed draws depends on
// them.
func productFormParams(seed int64) (Params, float64, *Params) {
	rng := rand.New(rand.NewSource(seed))
	type phases struct{ w, r []float64 }
	draw := func(n int, scale float64) phases {
		ph := phases{make([]float64, n), make([]float64, n)}
		for i := range ph.w {
			ph.w[i] = 0.05 + rng.Float64()
			ph.r[i] = scale * math.Exp(1.5*rng.NormFloat64())
		}
		return ph
	}
	op, rep := draw(1+rng.Intn(3), 0.05), draw(1+rng.Intn(2), 2)
	n := 1 + rng.Intn(12)
	for NumModes(n, len(op.w)+len(rep.w)) > 120 {
		n--
	}
	mu := 0.5 + rng.Float64()
	load := 0.01 + 0.989*rng.Float64()
	zeroed := false
	for _, ph := range []phases{op, rep} {
		positive := len(ph.w)
		for i := range ph.w {
			if rng.Intn(4) == 0 && positive > 1 {
				ph.w[i] = 0
				positive--
				zeroed = true
			}
		}
	}
	hyper := func(ph phases) *dist.HyperExp {
		var sum float64
		for _, w := range ph.w {
			sum += w
		}
		for i := range ph.w {
			ph.w[i] /= sum
		}
		return dist.MustHyperExp(ph.w, ph.r)
	}
	opD, repD := hyper(op), hyper(rep)
	p := envParams(n, 1, mu, opD, repD)
	l1, err := p.Load()
	if err != nil {
		panic(err)
	}
	p.Lambda = load / l1
	if !zeroed {
		return p, load, nil
	}
	reduced := envParams(n, p.Lambda, mu, withoutZeroWeights(opD), withoutZeroWeights(repD))
	return p, load, &reduced
}

// certifyRoots checks each factored root on its own scalar equation: for
// every multiset m, the root z that multisetRoot finds must have g_m
// change sign around it, g_m(z·(1−1e-13)) > 0 > g_m(z·(1+1e-13)). g_m
// has one root in (0, 1), where it falls through 0, so this brackets the
// root to 1e-13 relative without any other eigen-solver.
func certifyRoots(t testing.TB, what string, p Params) {
	t.Helper()
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	f, fw := sv.fac, &sv.NewWorker().fac
	for mi := range len(f.multisets) / f.k {
		z, err := fw.multisetRoot(f, p.Lambda, mi)
		if err != nil {
			t.Fatalf("%s: multiset %v: %v", what, f.multiset(mi), err)
		}
		below, _ := fw.g(f, p.Lambda, z*(1-1e-13), mi)
		above, _ := fw.g(f, p.Lambda, z*(1+1e-13), mi)
		if !(below > 0 && above < 0) {
			t.Fatalf("%s: multiset %v: root %v is not bracketed: g = %v below, %v above", what, f.multiset(mi), z, below, above)
		}
	}
}

// FuzzFactoredStage solves random product-form environments. A draw with
// zero weights must meet its reduced model (checkReducedModel, L to
// lTol(load)); the smallest relative branch gap its transient vectors
// divided by is logged. Any other draw has every root certified on its
// own scalar equation (certifyRoots, 1e-13 relative) and every
// closed-form vector a left null vector of Q(z) to 1e-12 relative. It is
// also solved by companionSolve, and must have the same L to lTol(load)
// relative and, wherever a companion root's nearest neighbour is more than
// 1e-6 away relative, the same root to 1e-8, so the two root sets pair
// up. The companion QR's roots are the inaccurate ones: as eigenvalues of
// the non-normal companion they sit up to 3.9e-9 from the certified roots
// (seed −29, over 420 draws of seeds −400..400), even 4e-3 apart, and
// inside a tight cluster they can move by about ε over its gap. The
// companion is no oracle for zero weights: its QR splits their clustered
// roots into spurious complex pairs.
func FuzzFactoredStage(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 10} { // 7 and 10 draw zero weights
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p, load, reduced := productFormParams(seed)
		what := fmt.Sprintf("load %v s=%d", load, p.Size())
		if reduced != nil {
			gap := checkReducedModel(t, what, p, *reduced, lTol(load))
			t.Logf("zero weights, s=%d load %v: smallest relative branch gap %.2e", p.Size(), load, gap)
			return
		}
		fac, err := SolveSpectral(p)
		if err != nil {
			t.Fatalf("%s: factored: %v", what, err)
		}
		certifyRoots(t, what, p)
		if r := maxVectorResidual(p, fac); r > 1e-12 {
			t.Fatalf("%s: closed-form vector residual %.1e", what, r)
		}
		comp, err := companionSolve(p)
		if err != nil {
			t.Fatalf("%s: companion: %v", what, err)
		}
		a, b := sortedRoots(fac), sortedRoots(comp)
		for i := range a {
			gap := math.Inf(1)
			if i > 0 {
				gap = b[i] - b[i-1]
			}
			if i+1 < len(b) {
				gap = math.Min(gap, b[i+1]-b[i])
			}
			if gap <= 1e-6*b[i] {
				continue // inside a cluster: certified above
			}
			if d := math.Abs(a[i] - b[i]); d > 1e-8 {
				t.Fatalf("%s: root %d: factored %v, companion %v", what, i, a[i], b[i])
			}
		}
		lf, lc := fac.MeanQueue(), comp.MeanQueue()
		if d := math.Abs(lf-lc) / lc; d > lTol(load) {
			t.Fatalf("%s: L factored %v, companion %v (rel %.1e)", what, lf, lc, d)
		}
	})
}

// lumpedParams builds the queue of n servers, each with phase-change rates
// g and service rates r, described as identical servers, with service at
// Σ_p n_p·r_p from level 1 on.
func lumpedParams(g *linalg.Matrix, r []float64, n int) Params {
	d := &Servers{G: g, Rates: r, N: n}
	modes := d.Modes()
	top := make([]float64, len(modes))
	for i, c := range modes {
		for p, cnt := range c {
			top[i] += float64(cnt) * r[p]
		}
	}
	return Params{Lambda: 1, ServiceDiag: [][]float64{top, top}, Servers: d}
}

// referenceA lumps d into A independently of Servers.lump: every mode's
// transition to the mode with one server moved from phase p to phase q,
// found by a linear search of d.Modes, at n_p·G[p][q].
func referenceA(d *Servers) *linalg.Matrix {
	modes, k := d.Modes(), d.G.Rows
	index := func(c []int) int {
		return slices.IndexFunc(modes, func(o []int) bool { return slices.Equal(o, c) })
	}
	a := linalg.NewMatrix(len(modes), len(modes))
	for i, c := range modes {
		for p, cnt := range c {
			for q := 0; q < k; q++ {
				if cnt == 0 || q == p || d.G.At(p, q) == 0 {
					continue
				}
				to := slices.Clone(c)
				to[p]--
				to[q]++
				a.Set(i, index(to), float64(cnt)*d.G.At(p, q))
			}
		}
	}
	return a
}
