package qbd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// fuzzParams turns the fuzzer's raw inputs into solver parameters. When
// single is set it builds the smallest legal environment — one server
// with one phase (s = 1, a single always-operative mode, a 1×1 zero
// transition matrix) with level-0 service the environment builder never
// produces.
func fuzzParams(seed int64, single bool) (Params, bool) {
	rng := rand.New(rand.NewSource(seed))
	if single {
		mu0 := math.Exp(rng.NormFloat64())
		mu1 := mu0 * (1 + rng.Float64())
		return Params{
			Lambda:      1,
			ServiceDiag: [][]float64{{mu0}, {mu1}},
			Servers:     &Servers{G: linalg.NewMatrix(1, 1), Rates: []float64{mu1}, N: 1},
		}, true
	}
	return randomStableParams(rng)
}

// FuzzSweepSolver fuzzes a reused worker against one-shot solves over
// degenerate batches: single-point grids (span = 0), grids whose upper
// points cross the stability threshold mid-sweep, and s = 1 environments.
// Every grid point must agree with per-point SolveSpectral on a fresh
// worker — identical error text on failing points, bit-identical metrics
// (amd64) on the rest.
func FuzzSweepSolver(f *testing.F) {
	f.Add(int64(1), 0.8, 0.0, false)  // single-point batch
	f.Add(int64(2), 0.5, 1.2, false)  // grid crossing into instability
	f.Add(int64(3), 0.9, 0.4, true)   // s = 1 environment
	f.Add(int64(4), -1.0, 0.3, false) // non-positive rates in the grid
	f.Add(int64(5), 1e6, 0.0, true)   // single unstable point
	f.Fuzz(func(t *testing.T, seed int64, lamScale, span float64, single bool) {
		if math.IsNaN(lamScale) || math.IsInf(lamScale, 0) ||
			math.IsNaN(span) || math.IsInf(span, 0) {
			t.Skip("non-finite fuzz input")
		}
		p, ok := fuzzParams(seed, single)
		if !ok {
			t.Skip("degenerate environment draw")
		}
		sv, err := NewSweepSolver(p)
		if err != nil {
			// Construction rejects only what every one-shot solve rejects too.
			p2 := p
			p2.Lambda = 1
			if _, scalarErr := SolveSpectral(p2); scalarErr == nil {
				t.Fatalf("NewSweepSolver failed (%v) but scalar path solves", err)
			}
			t.Skip("environment rejected by both paths")
		}
		w := sv.NewWorker()
		var sol SpectralSolution
		// Grid of 1–5 points centred on lamScale·λ with half-width span.
		points := 1 + int(math.Abs(span)*4)%5
		span = math.Min(math.Abs(span), 2)
		for g := 0; g < points; g++ {
			frac := 0.0
			if points > 1 {
				frac = 2*float64(g)/float64(points-1) - 1 // -1..1 across the grid
			}
			lambda := p.Lambda * lamScale * (1 + span*frac)
			p2 := p
			p2.Lambda = lambda
			want, wantErr := SolveSpectral(p2)
			gotErr := w.SolveInto(lambda, &sol)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("λ=%v: scalar err %v, batch err %v", lambda, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("λ=%v: error text %q vs %q", lambda, wantErr, gotErr)
				}
				continue
			}
			if !sameFloat(want.MeanQueue(), sol.MeanQueue()) ||
				!sameFloat(want.TailDecay(), sol.TailDecay()) ||
				!sameFloat(want.TotalProbability(), sol.TotalProbability()) {
				t.Fatalf("λ=%v: metrics diverge: L %v vs %v, z %v vs %v", lambda,
					want.MeanQueue(), sol.MeanQueue(), want.TailDecay(), sol.TailDecay())
			}
			for j := 0; j <= 10; j++ {
				if !sameFloat(want.LevelProb(j), sol.LevelProb(j)) {
					t.Fatalf("λ=%v: LevelProb(%d) %v vs %v",
						lambda, j, want.LevelProb(j), sol.LevelProb(j))
				}
			}
		}
	})
}
