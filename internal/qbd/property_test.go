package qbd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

// TestCrossMethodAgreementProperty throws random unreliable-server systems
// at both exact solvers and demands agreement — the strongest correctness
// property available, since the two methods share almost no code path
// (one server's eigen-branches, scalar roots and the expansion vs a real
// fixed point and matrix powers).
func TestCrossMethodAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		// Random 2-phase operative distribution with separated rates.
		w := 0.2 + 0.6*rng.Float64()
		r1 := math.Exp(rng.NormFloat64() - 1)
		r2 := r1 * (3 + 20*rng.Float64())
		op := dist.MustHyperExp([]float64{w, 1 - w}, []float64{r1, r2})
		rep := dist.Exp(math.Exp(rng.NormFloat64() + 1))
		mu := 0.5 + rng.Float64()
		p := envParams(n, 1, mu, op, rep)
		load, err := p.Load()
		if err != nil {
			return false
		}
		// Scale λ to a random stable load in (0.2, 0.95).
		target := 0.2 + 0.75*rng.Float64()
		p.Lambda = target / load
		sp, err := SolveSpectral(p)
		if err != nil {
			t.Logf("seed %d: spectral failed: %v", seed, err)
			return false
		}
		mg, err := SolveMatrixGeometric(p)
		if err != nil {
			t.Logf("seed %d: matrix-geometric failed: %v", seed, err)
			return false
		}
		lsp, lmg := sp.MeanQueue(), mg.MeanQueue()
		if math.Abs(lsp-lmg) > 1e-6*(1+lmg) {
			t.Logf("seed %d: L %v vs %v", seed, lsp, lmg)
			return false
		}
		for j := 0; j <= 15; j++ {
			a, b := sp.LevelProb(j), mg.LevelProb(j)
			if math.Abs(a-b) > 1e-8 {
				t.Logf("seed %d: P(%d) %v vs %v", seed, j, a, b)
				return false
			}
			if a < -1e-10 {
				t.Logf("seed %d: negative P(%d) = %v", seed, j, a)
				return false
			}
		}
		if res := BalanceResidual(p, sp, 25); res > 1e-8*(1+p.Lambda) {
			t.Logf("seed %d: balance residual %v", seed, res)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomStableParams draws a random unreliable-server environment (the
// same family TestCrossMethodAgreementProperty uses) and scales λ to a
// stable load in (0.2, 0.95). It reports ok=false when the draw is
// degenerate rather than failing, so property tests can skip it.
func randomStableParams(rng *rand.Rand) (p Params, ok bool) {
	n := 1 + rng.Intn(4)
	w := 0.2 + 0.6*rng.Float64()
	r1 := math.Exp(rng.NormFloat64() - 1)
	r2 := r1 * (3 + 20*rng.Float64())
	op := dist.MustHyperExp([]float64{w, 1 - w}, []float64{r1, r2})
	rep := dist.Exp(math.Exp(rng.NormFloat64() + 1))
	mu := 0.5 + rng.Float64()
	p = envParams(n, 1, mu, op, rep)
	load, err := p.Load()
	if err != nil {
		return Params{}, false
	}
	target := 0.2 + 0.75*rng.Float64()
	p.Lambda = target / load
	return p, true
}

// TestSweepSolverMetamorphicProperty is the worker-reuse metamorphic
// suite: for fuzzed random stable environments and λ-grids around each
// drawn rate, a SweepSolver evaluating the grid through one reused worker
// must reproduce per-point SolveSpectral, which runs on a fresh worker,
// exactly — bit-identical on amd64, within 1e-12 relative elsewhere —
// including level probabilities, queue tails and mode marginals. Per-point
// errors (unstable grid points at the high end) must appear on exactly the
// same points as the one-shot solves.
func TestSweepSolverMetamorphicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, ok := randomStableParams(rng)
		if !ok {
			return true
		}
		sv, err := NewSweepSolver(p)
		if err != nil {
			t.Logf("seed %d: NewSweepSolver: %v", seed, err)
			return false
		}
		w := sv.NewWorker()
		var sol SpectralSolution
		// Grid straddles the drawn rate; the top factor 1.3 can push some
		// points past the stability threshold, exercising per-point errors.
		for g := 0; g < 6; g++ {
			lambda := p.Lambda * (0.4 + 0.9*float64(g)/5)
			p2 := p
			p2.Lambda = lambda
			want, wantErr := SolveSpectral(p2)
			gotErr := w.SolveInto(lambda, &sol)
			if (wantErr == nil) != (gotErr == nil) {
				t.Logf("seed %d λ=%v: scalar err %v, batch err %v", seed, lambda, wantErr, gotErr)
				return false
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Logf("seed %d λ=%v: error text %q vs %q", seed, lambda, wantErr, gotErr)
					return false
				}
				continue
			}
			if !sameFloat(want.MeanQueue(), sol.MeanQueue()) ||
				!sameFloat(want.TailDecay(), sol.TailDecay()) ||
				!sameFloat(want.TotalProbability(), sol.TotalProbability()) {
				t.Logf("seed %d λ=%v: headline metrics diverge", seed, lambda)
				return false
			}
			for j := 0; j <= 12; j++ {
				if !sameFloat(want.LevelProb(j), sol.LevelProb(j)) {
					t.Logf("seed %d λ=%v: LevelProb(%d) %v vs %v",
						seed, lambda, j, want.LevelProb(j), sol.LevelProb(j))
					return false
				}
				if !sameFloat(want.TailProb(j), sol.TailProb(j)) {
					t.Logf("seed %d λ=%v: TailProb(%d) %v vs %v",
						seed, lambda, j, want.TailProb(j), sol.TailProb(j))
					return false
				}
			}
			wm, gm := want.ModeMarginals(), sol.ModeMarginals()
			for i := range wm {
				if !sameFloat(wm[i], gm[i]) {
					t.Logf("seed %d λ=%v: marginal %d %v vs %v", seed, lambda, i, wm[i], gm[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLargeNNearPaperLimit exercises the solver at N = 20 (s = 231), the
// region just below where the paper reports ill-conditioning warnings
// (N ≳ 24), and checks the approximation against the exact answer.
func TestLargeNNearPaperLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space; skipped with -short")
	}
	p := paramsFor(t, 20, 19.5, 1.0, paperOps, paperRepair) // load ≈ 0.976
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if tp := sol.TotalProbability(); math.Abs(tp-1) > 1e-6 {
		t.Errorf("total probability %v", tp)
	}
	if res := BalanceResidual(p, sol, 25); res > 1e-6 {
		t.Errorf("balance residual %v", res)
	}
	ap, err := SolveApprox(p)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy traffic (load ≈ 0.976) is the approximation's design regime, but
	// its convergence slows with N (the boundary carries more mass), so the
	// check is a sanity bound rather than a tight one; z_s below is exact.
	if rel := math.Abs(ap.MeanQueue()-sol.MeanQueue()) / sol.MeanQueue(); rel > 0.35 {
		t.Errorf("approx L %v vs exact %v", ap.MeanQueue(), sol.MeanQueue())
	}
	if d := math.Abs(ap.TailDecay() - sol.TailDecay()); d > 1e-8 {
		t.Errorf("z_s approx %v vs exact %v", ap.TailDecay(), sol.TailDecay())
	}
}

// TestApproxRobustBeyondExactComfortZone runs the approximation alone at
// N = 30 (s = 496) — the paper's remedy for the exact method's numerical
// trouble. It must produce a sane geometric solution quickly.
func TestApproxRobustBeyondExactComfortZone(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space; skipped with -short")
	}
	p := paramsFor(t, 30, 27.0, 1.0, paperOps, paperRepair)
	ap, err := SolveApprox(p)
	if err != nil {
		t.Fatal(err)
	}
	z := ap.TailDecay()
	if z <= 0 || z >= 1 {
		t.Fatalf("z_s = %v", z)
	}
	if l := ap.MeanQueue(); l <= 0 || math.IsInf(l, 0) {
		t.Fatalf("L = %v", l)
	}
	for _, v := range ap.ModeMarginals() {
		if v < 0 || v > 1 {
			t.Fatalf("marginal %v out of range", v)
		}
	}
}
