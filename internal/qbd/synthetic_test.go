package qbd

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// cyclicParams builds a queue modulated by a non-reversible environment:
// one server cycling through three phases (0 → 1 → 2 → 0), served at rate
// p+1 in phase p. Cyclic generators have complex eigenvalues, which drive
// the characteristic polynomial's roots off the real axis. The spectral
// solver rejects the server as not reversible, and the dense oracle,
// which takes real roots only, returns an error; the matrix-geometric and
// truncated solvers, which need neither, still solve it.
func cyclicParams(lambda float64) Params {
	return Params{
		Lambda: lambda,
		ServiceDiag: [][]float64{
			{0, 0, 0},
			{0.5, 1.0, 1.5},
			{1.0, 2.0, 3.0},
		},
		Servers: &Servers{
			G: linalg.FromRows([][]float64{
				{0, 1.3, 0},
				{0, 0, 0.7},
				{2.1, 0, 0},
			}),
			Rates: []float64{1, 2, 3},
			N:     1,
		},
	}
}

// TestCyclicEnvironmentHasComplexEigenvalues: the cyclic generator has a
// complex pair of eigenvalues, and the dense oracle returns an error on
// it, not a number.
func TestCyclicEnvironmentHasComplexEigenvalues(t *testing.T) {
	p := cyclicParams(1.0)
	if err := p.CheckStable(); err != nil {
		t.Fatalf("test setup not stable: %v", err)
	}
	a := p.EnvMatrix()
	gen := a.Clone()
	for i, d := range a.RowSums() {
		gen.Add(i, i, -d)
	}
	ev, err := linalg.Eigenvalues(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(ev, func(z complex128) bool { return imag(z) != 0 }) {
		t.Fatalf("generator eigenvalues %v are all real; the cyclic environment checks nothing", ev)
	}
	sol, err := SolveSpectralDense(p)
	if err == nil || !strings.Contains(err.Error(), "complex") {
		t.Fatalf("dense oracle on a complex spectrum: %v, %v; want a complex-root error", sol, err)
	}
}

// TestCyclicLoad: a non-reversible server's stationary π is the null
// vector of its k×k generator, so Load and CheckStable, which the
// matrix-geometric solver and the dense oracle check, still work on it;
// with one server it is EnvStationary's π, and Load must match that
// capacity.
func TestCyclicLoad(t *testing.T) {
	p := cyclicParams(1.0)
	load, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := p.EnvStationary()
	if err != nil {
		t.Fatal(err)
	}
	var capacity float64
	for i, c := range p.cTop() {
		capacity += pi[i] * c
	}
	if want := p.Lambda / capacity; math.Abs(load-want) > 1e-14*want {
		t.Errorf("Load = %v, EnvStationary's capacity gives %v", load, want)
	}
}

// TestCyclicCrossMethodAgreement: the two exact solvers that take a
// non-reversible server, matrix-geometric and the truncated chain, agree
// on the cyclic environment, on L and on every level up to 20.
func TestCyclicCrossMethodAgreement(t *testing.T) {
	for _, lambda := range []float64{0.4, 1.0, 1.6} {
		p := cyclicParams(lambda)
		mg, err := SolveMatrixGeometric(p)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		tr, err := SolveTruncated(p, 250)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if d := math.Abs(mg.MeanQueue() - tr.MeanQueue()); d > 1e-7*(1+tr.MeanQueue()) {
			t.Errorf("λ=%v: L MG %v vs truncated %v", lambda, mg.MeanQueue(), tr.MeanQueue())
		}
		for j := 0; j <= 20; j++ {
			a, b := mg.Level(j), tr.Level(j)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-9 {
					t.Fatalf("λ=%v level %d mode %d: MG %v vs truncated %v", lambda, j, i, a[i], b[i])
				}
			}
		}
	}
}

// TestCyclicApproximation checks the approximation's accessors on the Sun
// model at load 0.95, the geometric regime: the approximation needs a
// reversible server, which the cyclic environment's is not.
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
	mg, err := SolveMatrixGeometric(p)
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
