package qbd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/markov"
)

var (
	paperOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	paperRepair = dist.Exp(25)
)

// paramsFor builds queue parameters for N unreliable servers (envParams).
func paramsFor(t testing.TB, n int, lambda, mu float64, op, rep *dist.HyperExp) Params {
	t.Helper()
	return envParams(n, lambda, mu, op, rep)
}

// envParams builds the queue of n servers with operative periods op and
// repairs rep, served at mu, at arrival rate lambda, described as
// core.System.Params describes it: by one server, from which qbd derives
// the modes.
func envParams(n int, lambda, mu float64, op, rep *dist.HyperExp) Params {
	d := &Servers{G: markov.ServerRates(op, rep), Rates: markov.PhaseServiceRates(op, rep, mu), N: n}
	return Params{
		Lambda:      lambda,
		ServiceDiag: markov.ServiceDiag(markov.Operative(d.Modes(), op.Phases()), n, mu),
		Servers:     d,
	}
}

func TestValidate(t *testing.T) {
	p := paramsFor(t, 2, 1, 1, paperOps, paperRepair)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Lambda = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero lambda")
	}
	bad = p
	bad.ServiceDiag = p.ServiceDiag[:1]
	if err := bad.Validate(); err == nil {
		t.Error("expected error for single-level service diag")
	}
	// sameError requires Validate's error, containing want, from every
	// entry point, so the solvers report a bad input at once.
	sameError := func(name string, bad Params, want string) {
		t.Helper()
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Validate returned %v, want %q", name, err, want)
		}
		if _, got := SolveSpectral(bad); got == nil || got.Error() != err.Error() {
			t.Fatalf("%s: SolveSpectral returned %v, want %v", name, got, err)
		}
		if _, got := NewSweepSolver(bad); got == nil || got.Error() != err.Error() {
			t.Fatalf("%s: NewSweepSolver returned %v, want %v", name, got, err)
		}
		if _, got := SolveApprox(bad); got == nil || got.Error() != err.Error() {
			t.Fatalf("%s: SolveApprox returned %v, want %v", name, got, err)
		}
	}
	// withServers returns p with a copy of its description changed by m.
	withServers := func(m func(d *Servers)) Params {
		d := *p.Servers
		d.G = d.G.Clone()
		d.Rates = append([]float64(nil), d.Rates...)
		m(&d)
		bad := p
		bad.Servers = &d
		return bad
	}
	bad = p
	bad.Servers = nil
	sameError("no description", bad, "Params.Servers")
	sameError("nonzero G diagonal", withServers(func(d *Servers) { d.G.Set(0, 0, 1) }), "off the diagonal")
	// Non-finite rates must fail validation: an infinite service rate used
	// to hang the eigensolver's balancing loop.
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		bad = p
		bad.ServiceDiag = make([][]float64, len(p.ServiceDiag))
		for j, d := range p.ServiceDiag {
			bad.ServiceDiag[j] = append([]float64(nil), d...)
		}
		bad.ServiceDiag[len(bad.ServiceDiag)-1][1] = v
		sameError(fmt.Sprintf("service rate %v", v), bad, "must be finite")
		sameError(fmt.Sprintf("phase service rate %v", v), withServers(func(d *Servers) { d.Rates[0] = v }), "must be finite")
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1} {
		sameError(fmt.Sprintf("G entry %v", v), withServers(func(d *Servers) { d.G.Set(0, 1, v) }), "must be finite, non-negative")
	}
}

func TestLoadMatchesPaperFormula(t *testing.T) {
	// eq. (11): stability iff λ/µ < N·η/(ξ+η).
	n, mu := 10, 1.0
	p := paramsFor(t, n, 8.0, mu, paperOps, paperRepair)
	load, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	xi := paperOps.Rate()
	eta := paperRepair.Rate()
	want := 8.0 / mu / (float64(n) * eta / (xi + eta))
	if math.Abs(load-want) > 1e-9 {
		t.Fatalf("load = %v, eq. 11 gives %v", load, want)
	}
}

func TestEnvStationaryBinomial(t *testing.T) {
	// With exponential operative and repair periods, servers are independent
	// two-state chains: the number of operative servers is Binomial(N, p)
	// with p = η/(ξ+η).
	xi, eta := 0.5, 2.0
	env := envParams(3, 1, 1, dist.Exp(xi), dist.Exp(eta))
	pi, err := env.EnvStationary()
	if err != nil {
		t.Fatal(err)
	}
	p := eta / (xi + eta)
	for i, x := range markov.Operative(env.Servers.Modes(), 1) {
		want := float64(NumModes(3-x, x+1)) * math.Pow(p, float64(x)) * math.Pow(1-p, float64(3-x)) // C(3, x)
		if math.Abs(pi[i]-want) > 1e-10 {
			t.Errorf("mode %d (x=%d): π = %v, want %v", i, x, pi[i], want)
		}
	}
}

func TestEnvStationarySumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		w := 0.3 + 0.4*rng.Float64()
		op := dist.MustHyperExp(
			[]float64{w, 1 - w},
			[]float64{math.Exp(rng.NormFloat64()), math.Exp(rng.NormFloat64())},
		)
		pi, err := envParams(n, 1, 1, op, dist.Exp(1+rng.Float64()*10)).EnvStationary()
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExpectedOperativeMatchesEnvStationary(t *testing.T) {
	// E[operative] from the closed form N·η/(ξ+η) must match Σ_i x_i·π_i
	// even for hyperexponential periods (it depends only on the means —
	// paper §3).
	env := envParams(6, 1, 1, paperOps, paperRepair)
	pi, err := env.EnvStationary()
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for i, x := range markov.Operative(env.Servers.Modes(), paperOps.Phases()) {
		mean += float64(x) * pi[i]
	}
	if want := 6 * paperRepair.Rate() / (paperOps.Rate() + paperRepair.Rate()); math.Abs(mean-want) > 1e-8 {
		t.Errorf("Σxπ = %v, closed form %v", mean, want)
	}
}

func TestUnstableRejected(t *testing.T) {
	// Capacity ≈ N·η/(ξ+η)·µ ≈ 9.93 for N=10, so λ=11 is unstable.
	p := paramsFor(t, 10, 11.0, 1.0, paperOps, paperRepair)
	if _, err := SolveSpectral(p); !errors.Is(err, ErrUnstable) {
		t.Errorf("spectral err = %v, want ErrUnstable", err)
	}
	if _, err := SolveMatrixGeometric(p); !errors.Is(err, ErrUnstable) {
		t.Errorf("matrix-geometric err = %v, want ErrUnstable", err)
	}
	if _, err := SolveApprox(p); !errors.Is(err, ErrUnstable) {
		t.Errorf("approx err = %v, want ErrUnstable", err)
	}
}

func TestSpectralPaperExampleInvariants(t *testing.T) {
	// The worked example: N=2, n=2, m=1, s=6.
	p := paramsFor(t, 2, 1.2, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sol.Eigenvalues()); got != 6 {
		t.Errorf("eigenvalue count = %d, want s = 6", got)
	}
	assertStationaryInvariants(t, p, sol, 1e-9)
}

func TestSpectralBalanceEquationsHold(t *testing.T) {
	p := paramsFor(t, 3, 1.5, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if res := BalanceResidual(p, sol, 40); res > 1e-10 {
		t.Errorf("balance residual %v too large", res)
	}
}

func TestSpectralModeMarginalsMatchEnvironment(t *testing.T) {
	// Breakdowns are independent of the queue, so Σ_j v_j must equal the
	// environment's stationary distribution.
	p := paramsFor(t, 3, 1.8, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := p.EnvStationary()
	if err != nil {
		t.Fatal(err)
	}
	marg := sol.ModeMarginals()
	for i := range pi {
		if math.Abs(marg[i]-pi[i]) > 1e-9 {
			t.Errorf("mode %d: marginal %v, env stationary %v", i, marg[i], pi[i])
		}
	}
}

func TestSpectralMatchesMatrixGeometric(t *testing.T) {
	// Two completely different exact methods must agree everywhere: at
	// N = 3 for given rates, and at the daemon's sizes for given loads, so
	// the spectral solver keeps an independent oracle where it serves.
	// L must agree to tol·(1+L), tol defaulting to 1e-7; the load-0.99 row
	// holds MG's stopping rule to 1e-10 near load 1.
	type row struct {
		n            int
		lambda, load float64 // a row sets one of the two
		tol          float64
	}
	rows := []row{{n: 3, lambda: 0.5}, {n: 3, lambda: 1.5}, {n: 3, lambda: 2.4}, {n: 3, load: 0.99, tol: 1e-10}}
	for _, n := range []int{8, 10, 12} {
		for _, load := range []float64{0.5, 0.7, 0.9} {
			rows = append(rows, row{n: n, load: load})
		}
	}
	if !testing.Short() {
		rows = append(rows, row{n: 16, load: 0.7}, row{n: 20, load: 0.5})
	}
	for _, r := range rows {
		p := paramsFor(t, r.n, r.lambda, 1.0, paperOps, paperRepair)
		if r.load > 0 {
			p.Lambda = 1
			load1, err := p.Load()
			if err != nil {
				t.Fatal(err)
			}
			p.Lambda = r.load / load1
		}
		n, lambda := r.n, p.Lambda
		sp, err := SolveSpectral(p)
		if err != nil {
			t.Fatalf("N=%d λ=%v: %v", n, lambda, err)
		}
		mg, err := SolveMatrixGeometric(p)
		if err != nil {
			t.Fatalf("N=%d λ=%v: %v", n, lambda, err)
		}
		tol := r.tol
		if tol == 0 {
			tol = 1e-7
		}
		if d := math.Abs(sp.MeanQueue() - mg.MeanQueue()); d > tol*(1+mg.MeanQueue()) {
			t.Errorf("N=%d λ=%v: L spectral %v vs MG %v", n, lambda, sp.MeanQueue(), mg.MeanQueue())
		}
		for j := 0; j <= max(25, n+10); j++ {
			a, b := sp.Level(j), mg.Level(j)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-9 {
					t.Fatalf("N=%d λ=%v level %d mode %d: %v vs %v", n, lambda, j, i, a[i], b[i])
				}
			}
		}
		if d := math.Abs(sp.TailDecay() - mg.TailDecay()); d > 1e-7 {
			t.Errorf("N=%d λ=%v: tail decay %v vs %v", n, lambda, sp.TailDecay(), mg.TailDecay())
		}
	}
}

func TestSpectralMatchesTruncatedOracle(t *testing.T) {
	p := paramsFor(t, 2, 1.0, 1.0, paperOps, paperRepair)
	sp, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate far beyond the working range; tail decay ~0.5 ⇒ 200 levels
	// leave < 1e-50 unaccounted.
	tr, err := SolveTruncated(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sp.MeanQueue() - tr.MeanQueue()); d > 1e-8 {
		t.Errorf("L spectral %v vs truncated %v", sp.MeanQueue(), tr.MeanQueue())
	}
	for j := 0; j <= 30; j++ {
		a, b := sp.Level(j), tr.Level(j)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-10 {
				t.Fatalf("level %d mode %d: %v vs %v", j, i, a[i], b[i])
			}
		}
	}
}

func TestSpectralRecoversMM1(t *testing.T) {
	// With breakdowns vanishing (operative mean ≫ repair mean), the N=1
	// system degenerates to M/M/1: P(j) = (1−ρ)ρʲ, L = ρ/(1−ρ).
	op := dist.Exp(1e-7) // operative for ~1e7 time units
	rep := dist.Exp(1e3) // repaired in ~1e-3
	lambda, mu := 0.6, 1.0
	p := paramsFor(t, 1, lambda, mu, op, rep)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	if l := sol.MeanQueue(); math.Abs(l-rho/(1-rho)) > 1e-3 {
		t.Errorf("L = %v, M/M/1 gives %v", l, rho/(1-rho))
	}
	for j := 0; j <= 10; j++ {
		want := (1 - rho) * math.Pow(rho, float64(j))
		if got := sol.LevelProb(j); math.Abs(got-want) > 1e-4 {
			t.Errorf("P(%d) = %v, M/M/1 gives %v", j, got, want)
		}
	}
	if z := sol.TailDecay(); math.Abs(z-rho) > 1e-4 {
		t.Errorf("tail decay %v, want ρ = %v", z, rho)
	}
}

func TestSpectralRecoversMMc(t *testing.T) {
	// Same trick with N=3 servers: compare to the Erlang-C M/M/c formulas.
	op := dist.Exp(1e-7)
	rep := dist.Exp(1e3)
	lambda, mu, c := 2.2, 1.0, 3
	p := paramsFor(t, c, lambda, mu, op, rep)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if l, want := sol.MeanQueue(), mmcMeanQueue(lambda, mu, c); math.Abs(l-want) > 1e-3 {
		t.Errorf("L = %v, M/M/%d gives %v", l, c, want)
	}
}

func TestSpectralHeavyLoadNearOne(t *testing.T) {
	// Load 0.985 (the Figure 8 regime): solution must stay clean.
	p := paramsFor(t, 10, 9.78, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if tp := sol.TotalProbability(); math.Abs(tp-1) > 1e-7 {
		t.Errorf("total probability %v", tp)
	}
	if res := BalanceResidual(p, sol, 30); res > 1e-8 {
		t.Errorf("balance residual %v", res)
	}
	if z := sol.TailDecay(); z < 0.9 || z >= 1 {
		t.Errorf("tail decay %v out of heavy-traffic range", z)
	}
}

// TestDominantEigenvalueMatchesSpectral: the approximation's z_s is the
// all-Perron multiset's root, found as the spectral solve finds it, so it
// equals the spectral solution's dominant eigenvalue exactly.
func TestDominantEigenvalueMatchesSpectral(t *testing.T) {
	for _, lambda := range []float64{0.8, 1.9, 2.6} {
		p := paramsFor(t, 3, lambda, 1.0, paperOps, paperRepair)
		sol, err := SolveSpectral(p)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		ap, err := SolveApprox(p)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if z := ap.TailDecay(); z != sol.TailDecay() {
			t.Errorf("λ=%v: approx %v vs spectral %v", lambda, z, sol.TailDecay())
		}
	}
}

func TestApproxConvergesUnderHeavyLoad(t *testing.T) {
	// Paper Fig 8: the geometric approximation error shrinks as load → 1.
	p1 := paramsFor(t, 10, 8.9, 1.0, paperOps, paperRepair)  // load ≈ 0.896
	p2 := paramsFor(t, 10, 9.8, 1.0, paperOps, paperRepair)  // load ≈ 0.987
	p3 := paramsFor(t, 10, 9.91, 1.0, paperOps, paperRepair) // load ≈ 0.998
	relErr := func(p Params) float64 {
		ex, err := SolveSpectral(p)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := SolveApprox(p)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(ap.MeanQueue()-ex.MeanQueue()) / ex.MeanQueue()
	}
	e1, e2, e3 := relErr(p1), relErr(p2), relErr(p3)
	if !(e3 < e2 && e2 < e1) {
		t.Errorf("approximation error did not shrink with load: %v → %v → %v", e1, e2, e3)
	}
	if e3 > 0.05 {
		t.Errorf("error at load 0.998 is %v, want < 5%%", e3)
	}
}

func TestApproxGeometricForm(t *testing.T) {
	p := paramsFor(t, 4, 2.0, 1.0, paperOps, paperRepair)
	ap, err := SolveApprox(p)
	if err != nil {
		t.Fatal(err)
	}
	z := ap.TailDecay()
	if z <= 0 || z >= 1 {
		t.Fatalf("z_s = %v out of (0,1)", z)
	}
	// P(j+1)/P(j) = z exactly for the geometric form.
	for j := 0; j < 20; j++ {
		r := ap.LevelProb(j+1) / ap.LevelProb(j)
		if math.Abs(r-z) > 1e-12 {
			t.Fatalf("ratio at %d: %v vs z %v", j, r, z)
		}
	}
	if math.Abs(ap.MeanQueue()-z/(1-z)) > 1e-12 {
		t.Errorf("L = %v, want z/(1−z) = %v", ap.MeanQueue(), z/(1-z))
	}
	if tp := ap.TotalProbability(); tp != 1 {
		t.Errorf("total probability %v", tp)
	}
}

func TestSpectralTailIsAsymptoticallyGeometric(t *testing.T) {
	p := paramsFor(t, 3, 2.0, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	z := sol.TailDecay()
	// Subdominant terms decay like (|z₂|/z_s)^j, so compare deep in the tail.
	r := sol.LevelProb(81) / sol.LevelProb(80)
	if math.Abs(r-z) > 1e-5 {
		t.Errorf("tail ratio %v, dominant z %v", r, z)
	}
}

func TestTailProbConsistentWithLevels(t *testing.T) {
	p := paramsFor(t, 2, 1.0, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	// TailProb(j) − TailProb(j+1) = LevelProb(j) and TailProb(0) = 1.
	if tp := sol.TailProb(0); math.Abs(tp-1) > 1e-9 {
		t.Errorf("TailProb(0) = %v", tp)
	}
	for j := 0; j <= 12; j++ {
		diff := sol.TailProb(j) - sol.TailProb(j+1)
		if math.Abs(diff-sol.LevelProb(j)) > 1e-9 {
			t.Errorf("telescoping failed at %d: %v vs %v", j, diff, sol.LevelProb(j))
		}
	}
}

func TestAllLevelProbsNonNegative(t *testing.T) {
	p := paramsFor(t, 4, 2.2, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j <= 60; j++ {
		for i, v := range sol.Level(j) {
			if v < -1e-12 {
				t.Fatalf("negative probability v_%d[%d] = %v", j, i, v)
			}
		}
	}
}

func TestMGIterationsReported(t *testing.T) {
	p := paramsFor(t, 2, 1.0, 1.0, paperOps, paperRepair)
	mg, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Iterations() < 2 {
		t.Errorf("iterations = %d, expected a real fixed-point run", mg.Iterations())
	}
	if r := mg.R(); r.Rows != p.Size() {
		t.Errorf("R is %d×%d", r.Rows, r.Cols)
	}
}

func TestTruncatedValidation(t *testing.T) {
	p := paramsFor(t, 2, 1.0, 1.0, paperOps, paperRepair)
	if _, err := SolveTruncated(p, 0); err == nil {
		t.Error("expected error for truncation level 0")
	}
}

func TestQueueCCDF(t *testing.T) {
	p := paramsFor(t, 2, 1.0, 1.0, paperOps, paperRepair)
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	ccdf := QueueCCDF(sol, 10)
	if math.Abs(ccdf[0]-1) > 1e-9 {
		t.Errorf("CCDF(0) = %v", ccdf[0])
	}
	for j := 1; j <= 10; j++ {
		if ccdf[j] > ccdf[j-1]+1e-12 {
			t.Errorf("CCDF increasing at %d", j)
		}
	}
}

// assertStationaryInvariants checks the core invariants every exact solution
// must satisfy.
func assertStationaryInvariants(t *testing.T, p Params, sol Solution, tol float64) {
	t.Helper()
	if tp := sol.TotalProbability(); math.Abs(tp-1) > tol {
		t.Errorf("total probability = %v", tp)
	}
	if res := BalanceResidual(p, sol, 30); res > tol {
		t.Errorf("balance residual = %v", res)
	}
	if l := sol.MeanQueue(); l <= 0 || math.IsNaN(l) {
		t.Errorf("mean queue = %v", l)
	}
	for j := 0; j <= 20; j++ {
		if pr := sol.LevelProb(j); pr < -tol {
			t.Errorf("P(%d) = %v negative", j, pr)
		}
	}
}

// mmcMeanQueue is the Erlang-C closed form for the M/M/c mean queue length.
func mmcMeanQueue(lambda, mu float64, c int) float64 {
	a := lambda / mu
	rho := a / float64(c)
	sum := 0.0
	fact := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		sum += math.Pow(a, float64(k)) / fact
	}
	factC := fact * float64(c)
	p0 := 1 / (sum + math.Pow(a, float64(c))/(factC*(1-rho)))
	lq := p0 * math.Pow(a, float64(c)) * rho / (factC * (1 - rho) * (1 - rho))
	return lq + a
}
