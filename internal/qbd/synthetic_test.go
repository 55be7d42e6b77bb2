package qbd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// cyclicParams builds a queue modulated by a non-reversible, cyclic 3-state
// environment. Cyclic generators have complex eigenvalues, which drive the
// characteristic polynomial's roots off the real axis. No server
// description fits it, so the spectral solver rejects it; these tests run
// the dense oracle's companion eigen stage on it, the complex-conjugate
// branch the breakdown/repair environments never reach.
func cyclicParams(lambda float64) Params {
	a := linalg.FromRows([][]float64{
		{0, 1.3, 0},
		{0, 0, 0.7},
		{2.1, 0, 0},
	})
	return Params{
		Lambda: lambda,
		A:      a,
		ServiceDiag: [][]float64{
			{0, 0, 0},
			{0.5, 1.0, 1.5},
			{1.0, 2.0, 3.0},
		},
	}
}

func TestCyclicEnvironmentHasComplexEigenvalues(t *testing.T) {
	p := cyclicParams(1.0)
	if err := p.CheckStable(); err != nil {
		t.Fatalf("test setup not stable: %v", err)
	}
	sol, err := SolveSpectralDense(p)
	if err != nil {
		t.Fatal(err)
	}
	complexFound := false
	for _, z := range sol.Eigenvalues() {
		if imag(z) != 0 {
			complexFound = true
			// Conjugate partner must be present.
			partner := false
			for _, w := range sol.Eigenvalues() {
				if w == cmplx.Conj(z) {
					partner = true
				}
			}
			if !partner {
				t.Errorf("eigenvalue %v lacks its conjugate", z)
			}
		}
	}
	if !complexFound {
		t.Fatal("expected complex eigenvalues from the cyclic environment; the complex solver path is untested")
	}
	assertStationaryInvariants(t, p, sol, 1e-9)
}

func TestCyclicCrossMethodAgreement(t *testing.T) {
	for _, lambda := range []float64{0.4, 1.0, 1.6} {
		p := cyclicParams(lambda)
		sp, err := SolveSpectralDense(p)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		mg, err := SolveMatrixGeometric(p, MGOptions{})
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		tr, err := SolveTruncated(p, 250)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if d := math.Abs(sp.MeanQueue() - mg.MeanQueue()); d > 1e-7*(1+mg.MeanQueue()) {
			t.Errorf("λ=%v: L spectral %v vs MG %v", lambda, sp.MeanQueue(), mg.MeanQueue())
		}
		if d := math.Abs(sp.MeanQueue() - tr.MeanQueue()); d > 1e-7*(1+tr.MeanQueue()) {
			t.Errorf("λ=%v: L spectral %v vs truncated %v", lambda, sp.MeanQueue(), tr.MeanQueue())
		}
		for j := 0; j <= 20; j++ {
			a, b := sp.Level(j), mg.Level(j)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-9 {
					t.Fatalf("λ=%v level %d mode %d: %v vs %v", lambda, j, i, a[i], b[i])
				}
			}
		}
	}
}

// TestCyclicDenseAgreement: the dense oracle's conjugate-pair solution
// meets the truncated chain, which shares none of its code.
func TestCyclicDenseAgreement(t *testing.T) {
	p := cyclicParams(1.2)
	dense, err := SolveSpectralDense(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SolveTruncated(p, 250)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(tr.MeanQueue() - dense.MeanQueue()); d > 1e-8 {
		t.Errorf("L truncated %v vs dense %v", tr.MeanQueue(), dense.MeanQueue())
	}
}

// randomCyclicParams draws a non-reversible raw environment: s in 3..12
// modes on a random cycle through every mode plus random extra edges, N in
// 1..4 with C_j = (j/N)·C_N, about one mode in ten with no service, and λ
// at a load in [0.1, 0.95].
func randomCyclicParams(rng *rand.Rand) (Params, float64) {
	s := 3 + rng.Intn(10)
	n := 1 + rng.Intn(4)
	a := linalg.NewMatrix(s, s)
	perm := rng.Perm(s)
	for i, from := range perm {
		a.Set(from, perm[(i+1)%s], 0.2+3*rng.Float64())
	}
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			if i != j && a.At(i, j) == 0 && rng.Float64() < 0.15 {
				a.Set(i, j, 0.05+0.5*rng.Float64())
			}
		}
	}
	top := make([]float64, s)
	for i := range top {
		if rng.Float64() >= 0.1 {
			top[i] = 0.2 + 3*rng.Float64()
		}
	}
	diag := make([][]float64, n+1)
	for j := range diag {
		diag[j] = make([]float64, s)
		for i, c := range top {
			diag[j][i] = c * float64(j) / float64(n)
		}
	}
	p := Params{Lambda: 1, A: a, ServiceDiag: diag}
	load := 0.1 + 0.85*rng.Float64()
	l1, err := p.Load()
	if err != nil {
		panic(err)
	}
	p.Lambda = load / l1
	return p, load
}

// TestConjugatePairsMatchDenseProperty checks the dense oracle's
// conjugate pairs on random non-reversible environments, whose roots are
// complex: L and every level entry up to N+5 must agree with
// SolveMatrixGeometric at MGOptions{Tol: 1e-15} to 1e-12 relative (an
// entry relative to its level's largest), the balance residual must be
// ≤ 1e-12, and at least 80% of the draws must have complex roots.
func TestConjugatePairsMatchDenseProperty(t *testing.T) {
	const draws = 60
	withPairs := 0
	for seed := int64(1); seed <= draws; seed++ {
		p, load := randomCyclicParams(rand.New(rand.NewSource(seed)))
		dense, err := SolveSpectralDense(p)
		if err != nil {
			t.Fatalf("seed %d (s=%d N=%d load %.3f): dense: %v", seed, p.Size(), p.Threshold(), load, err)
		}
		mg, err := SolveMatrixGeometric(p, MGOptions{Tol: 1e-15})
		if err != nil {
			t.Fatalf("seed %d: matrix-geometric: %v", seed, err)
		}
		for _, z := range dense.Eigenvalues() {
			if imag(z) != 0 {
				withPairs++
				break
			}
		}
		ld, lm := dense.MeanQueue(), mg.MeanQueue()
		if d := math.Abs(ld-lm) / lm; d > 1e-12 {
			t.Errorf("seed %d (s=%d N=%d load %.3f): L dense %v vs MG %v (rel %.1e)", seed, p.Size(), p.Threshold(), load, ld, lm, d)
		}
		for j := 0; j <= p.Threshold()+5; j++ {
			a, b := dense.Level(j), mg.Level(j)
			var scale float64
			for _, v := range b {
				scale = math.Max(scale, math.Abs(v))
			}
			for i := range a {
				if d := math.Abs(a[i] - b[i]); d > 1e-12*scale {
					t.Fatalf("seed %d level %d mode %d: dense %v vs MG %v", seed, j, i, a[i], b[i])
				}
			}
		}
		if r := BalanceResidual(p, dense, p.Threshold()+5); r > 1e-12 {
			t.Errorf("seed %d: balance residual %.1e", seed, r)
		}
	}
	if withPairs < draws*8/10 {
		t.Errorf("only %d of %d draws had complex roots", withPairs, draws)
	}
	t.Logf("%d of %d draws had complex roots", withPairs, draws)
}

// TestCyclicApproximation checks the approximation's accessors on the Sun
// model at load 0.95, the geometric regime: the approximation needs a
// server description, which the cyclic environment has none of.
func TestCyclicApproximation(t *testing.T) {
	p := atLoad(t, paramsFor(t, 3, 1, 1, paperOps, paperRepair), 0.95)
	ex, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := SolveApprox(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ap.TailDecay() - ex.TailDecay()); d > 1e-9 {
		t.Errorf("z_s approx %v vs exact %v", ap.TailDecay(), ex.TailDecay())
	}
	// ApproxSolution.Level is the geometric slice of the mode vector.
	lv := ap.Level(3)
	var sum float64
	for _, v := range lv {
		sum += v
	}
	if math.Abs(sum-ap.LevelProb(3)) > 1e-12 {
		t.Errorf("Level(3) sums to %v, LevelProb gives %v", sum, ap.LevelProb(3))
	}
	if ap.LevelProb(-1) != 0 {
		t.Error("negative level must have probability 0")
	}
	for i, v := range ap.Level(-1) {
		if v != 0 {
			t.Errorf("Level(-1)[%d] = %v", i, v)
		}
	}
}

func TestSolutionAccessors(t *testing.T) {
	p := paramsFor(t, 2, 1.0, 1.0, paperOps, paperRepair)
	mg, err := SolveMatrixGeometric(p, MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mg.Threshold() != 2 {
		t.Errorf("MG threshold %d", mg.Threshold())
	}
	if tp := mg.TotalProbability(); math.Abs(tp-1) > 1e-9 {
		t.Errorf("MG total probability %v", tp)
	}
	if mm := mg.ModeMarginals(); len(mm) != p.Size() {
		t.Errorf("MG marginals length %d", len(mm))
	}
	sp, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Threshold() != 2 {
		t.Errorf("spectral threshold %d", sp.Threshold())
	}
	tr, err := SolveTruncated(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxLevel() != 50 {
		t.Errorf("truncation level %d", tr.MaxLevel())
	}
	if tp := tr.TotalProbability(); math.Abs(tp-1) > 1e-12 {
		t.Errorf("truncated total probability %v", tp)
	}
	if pr := tr.LevelProb(51); pr != 0 {
		t.Errorf("probability beyond truncation %v", pr)
	}
	if pr := tr.LevelProb(3); pr <= 0 {
		t.Errorf("P(3) = %v", pr)
	}
	if z := tr.TailDecay(); z <= 0 || z >= 1 {
		t.Errorf("truncated tail decay %v", z)
	}
	if mm := tr.ModeMarginals(); len(mm) != p.Size() {
		t.Errorf("truncated marginals length %d", len(mm))
	}
	// Negative-level conventions across solvers.
	if sp.LevelProb(-1) != 0 || mg.LevelProb(-1) != 0 || tr.LevelProb(-1) != 0 {
		t.Error("negative levels must have probability 0")
	}
}
