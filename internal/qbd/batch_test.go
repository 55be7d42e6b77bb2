package qbd

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// SolveSpectral is a sweep of one point on a fresh worker, so these tests
// check that a reused or pooled worker reproduces it — a stale arena,
// solution or pool state would show as a difference. Results must be
// bit-identical on amd64; on architectures whose compilers contract
// multiply-adds into FMAs the assertions fall back to a 1e-12 relative
// tolerance (documented in ARCHITECTURE.md).

const exactArch = "amd64"

func sameFloat(a, b float64) bool {
	if runtime.GOARCH == exactArch {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a))
}

func requireSameFloats(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if !sameFloat(want[i], got[i]) {
			t.Fatalf("%s[%d]: %v (%x) vs %v (%x)", what, i,
				want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// requireSolutionsIdentical compares the full internal state and the
// derived metrics of two spectral solutions.
func requireSolutionsIdentical(t *testing.T, want, got *SpectralSolution) {
	t.Helper()
	if want.n != got.n || want.s != got.s {
		t.Fatalf("shape: N=%d,s=%d vs N=%d,s=%d", want.n, want.s, got.n, got.s)
	}
	for j := range want.boundary {
		requireSameFloats(t, "boundary level", want.boundary[j], got.boundary[j])
	}
	if len(want.terms) != len(got.terms) {
		t.Fatalf("terms: %d vs %d", len(want.terms), len(got.terms))
	}
	for k := range want.terms {
		wt, gt := want.terms[k], got.terms[k]
		if !sameFloat(wt.z, gt.z) {
			t.Fatalf("term %d z: %v vs %v", k, wt.z, gt.z)
		}
		if !sameFloat(wt.gamma, gt.gamma) {
			t.Fatalf("term %d gamma: %v vs %v", k, wt.gamma, gt.gamma)
		}
		requireSameFloats(t, fmt.Sprintf("term %d u", k), wt.u, gt.u)
	}
	if !sameFloat(want.MeanQueue(), got.MeanQueue()) {
		t.Fatalf("MeanQueue: %v vs %v", want.MeanQueue(), got.MeanQueue())
	}
	if !sameFloat(want.TailDecay(), got.TailDecay()) {
		t.Fatalf("TailDecay: %v vs %v", want.TailDecay(), got.TailDecay())
	}
	if !sameFloat(want.TotalProbability(), got.TotalProbability()) {
		t.Fatalf("TotalProbability: %v vs %v", want.TotalProbability(), got.TotalProbability())
	}
	requireSameFloats(t, "ModeMarginals", want.ModeMarginals(), got.ModeMarginals())
	for j := 0; j <= want.n+8; j++ {
		if !sameFloat(want.LevelProb(j), got.LevelProb(j)) {
			t.Fatalf("LevelProb(%d): %v vs %v", j, want.LevelProb(j), got.LevelProb(j))
		}
		if !sameFloat(want.TailProb(j), got.TailProb(j)) {
			t.Fatalf("TailProb(%d): %v vs %v", j, want.TailProb(j), got.TailProb(j))
		}
		requireSameFloats(t, "Level", want.Level(j), got.Level(j))
	}
}

func sweepGrid(low, high float64, g int) []float64 {
	out := make([]float64, g)
	for i := range out {
		out[i] = low + (high-low)*float64(i)/float64(g)
	}
	return out
}

// TestSweepSolverMatchesSolveSpectral drives one worker across a λ-grid
// with a single reused solution value and checks every point against a
// fresh one-shot SolveSpectral — the core equivalence property: reusing a
// workspace changes nothing.
func TestSweepSolverMatchesSolveSpectral(t *testing.T) {
	p := paramsFor(t, 4, 1, 1, paperOps, paperRepair)
	load1, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	w := sv.NewWorker()
	var sol SpectralSolution
	for _, lambda := range sweepGrid(0.1/load1, 0.95/load1, 24) {
		p.Lambda = lambda
		want, wantErr := SolveSpectral(p)
		gotErr := w.SolveInto(lambda, &sol)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("λ=%v: error mismatch: scalar %v, batch %v", lambda, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		requireSolutionsIdentical(t, want, &sol)
	}
}

// TestSweepSolverMatchesSolveSpectralLargeN runs the full-state
// reused-versus-fresh check at the daemon's sizes: N = 8, 9, 10 and 12 give
// s = 45, 55, 66 and 91 and companions of 90–182, so the kernels' blocks
// of four rows or columns leave every remainder mod 4, and one worker
// carries its workspaces from each size to the next.
func TestSweepSolverMatchesSolveSpectralLargeN(t *testing.T) {
	for _, n := range []int{8, 9, 10, 12} {
		p := paramsFor(t, n, 1, 1, paperOps, paperRepair)
		load1, err := p.Load()
		if err != nil {
			t.Fatal(err)
		}
		sv, err := NewSweepSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		w := sv.NewWorker()
		var sol SpectralSolution
		for _, load := range []float64{0.35, 0.8, 0.97} {
			p.Lambda = load / load1
			want, err := SolveSpectral(p)
			if err != nil {
				t.Fatalf("N=%d load %v: %v", n, load, err)
			}
			if err := w.SolveInto(p.Lambda, &sol); err != nil {
				t.Fatalf("N=%d load %v: %v", n, load, err)
			}
			requireSolutionsIdentical(t, want, &sol)
		}
	}
}

// TestSweepSolverPooledSolveMatches exercises the pooled Solve entry point
// and checks the returned solutions are caller-owned: still equal to a
// fresh one-shot solve after later points were solved on the same pool.
func TestSweepSolverPooledSolveMatches(t *testing.T) {
	p := paramsFor(t, 3, 1, 1, paperOps, paperRepair)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lambdas := sweepGrid(0.5, 2.2, 8)
	sols := make([]*SpectralSolution, len(lambdas))
	for i, l := range lambdas {
		if sols[i], err = sv.Solve(l); err != nil {
			t.Fatalf("λ=%v: %v", l, err)
		}
	}
	for i, l := range lambdas {
		p.Lambda = l
		want, err := SolveSpectral(p)
		if err != nil {
			t.Fatal(err)
		}
		requireSolutionsIdentical(t, want, sols[i])
	}
}

// TestSweepSolverMidGridErrors is the regression test for mid-sweep
// failures: invalid and unstable rates inside the grid must return a
// one-shot solve's exact errors without poisoning the shared batch state
// — points solved after the failure stay bit-identical to a fresh solve.
func TestSweepSolverMidGridErrors(t *testing.T) {
	p := paramsFor(t, 3, 1, 1, paperOps, paperRepair)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	w := sv.NewWorker()
	var sol SpectralSolution

	// Warm the workspace with a good point.
	if err := w.SolveInto(1.0, &sol); err != nil {
		t.Fatal(err)
	}

	// Unstable rate mid-grid: same error as a one-shot solve.
	p.Lambda = 1e6
	_, wantErr := SolveSpectral(p)
	gotErr := w.SolveInto(1e6, &sol)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected unstable errors, got scalar %v, batch %v", wantErr, gotErr)
	}
	if !errors.Is(gotErr, ErrUnstable) {
		t.Fatalf("batch error %v is not ErrUnstable", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error text differs:\n  scalar: %v\n  batch:  %v", wantErr, gotErr)
	}

	// Invalid rate mid-grid: same error text as Params.Validate.
	p.Lambda = -2
	wantErr = p.Validate()
	gotErr = w.SolveInto(-2, &sol)
	if gotErr == nil || wantErr == nil || !strings.Contains(gotErr.Error(), wantErr.Error()) {
		t.Fatalf("λ<0 error mismatch: scalar %v, batch %v", wantErr, gotErr)
	}

	// The shared state survives: the next point is still bit-identical.
	p.Lambda = 1.3
	want, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SolveInto(1.3, &sol); err != nil {
		t.Fatal(err)
	}
	requireSolutionsIdentical(t, want, &sol)
}

// TestSweepSolverRejectsNonFiniteRates is the regression test for NaN and
// infinite arrival rates: Params.Validate, SolveSpectral and SolveInto all
// return the same validation error at once instead of iterating QR on a
// NaN companion, and a solver hoisted from a NaN base rate still solves
// valid rates bit-identically to a one-shot solve.
func TestSweepSolverRejectsNonFiniteRates(t *testing.T) {
	p := paramsFor(t, 3, math.NaN(), 1, paperOps, paperRepair)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatalf("NaN base rate must not fail construction: %v", err)
	}
	w := sv.NewWorker()
	var sol SpectralSolution
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p.Lambda = lambda
		want := p.Validate()
		if want == nil || !strings.Contains(want.Error(), "must be positive and finite") {
			t.Fatalf("λ=%v: Validate returned %v", lambda, want)
		}
		_, scalarErr := SolveSpectral(p)
		batchErr := w.SolveInto(lambda, &sol)
		for _, err := range []error{scalarErr, batchErr} {
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("λ=%v: got %v, want the validation error %q", lambda, err, want)
			}
		}
	}
	p.Lambda = 1.3
	want, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SolveInto(1.3, &sol); err != nil {
		t.Fatal(err)
	}
	requireSolutionsIdentical(t, want, &sol)
}

// TestSweepSolverConcurrent hammers one shared SweepSolver from many
// goroutines and verifies every result against precomputed one-shot
// solves — pooled workspaces must never alias across concurrent points.
// Run under -race in CI.
func TestSweepSolverConcurrent(t *testing.T) {
	p := paramsFor(t, 3, 1, 1, paperOps, paperRepair)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lambdas := sweepGrid(0.4, 2.4, 16)
	want := make([]*SpectralSolution, len(lambdas))
	for i, l := range lambdas {
		p.Lambda = l
		if want[i], err = SolveSpectral(p); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := range lambdas {
					idx := (i + g) % len(lambdas)
					got, err := sv.Solve(lambdas[idx])
					if err != nil {
						errs <- err
						return
					}
					w := want[idx]
					// Canary: a torn or aliased workspace shows up as a
					// mean-queue mismatch against the one-shot reference.
					if !sameFloat(w.MeanQueue(), got.MeanQueue()) ||
						!sameFloat(w.TailDecay(), got.TailDecay()) {
						errs <- errors.New("concurrent result diverged from scalar reference")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSweepWorkerSolveIntoAllocationFree enforces the tentpole invariant:
// once a (worker, solution) pair is warm, a grid point costs zero heap
// allocations, including reading the headline metric.
func TestSweepWorkerSolveIntoAllocationFree(t *testing.T) {
	p := paramsFor(t, 4, 1, 1, paperOps, paperRepair)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	w := sv.NewWorker()
	var sol SpectralSolution
	lambdas := sweepGrid(0.6, 3.4, 8)
	for _, l := range lambdas { // warm worker arena and solution storage
		if err := w.SolveInto(l, &sol); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	var sink float64
	allocs := testing.AllocsPerRun(40, func() {
		l := lambdas[i%len(lambdas)]
		i++
		if err := w.SolveInto(l, &sol); err != nil {
			t.Fatal(err)
		}
		sink += sol.MeanQueue()
	})
	if allocs != 0 {
		t.Fatalf("SolveInto allocated %v times per point, want 0 (sink %v)", allocs, sink)
	}
}

// TestSweepWorkerMemoryBounded pins the worker's working set at
// O(N·s²): a warm worker and its solution may retain at most
// 16·(2N+16)·s² bytes (1.0, 2.5 and 18 MB at N = 8, 10 and 16). A worker
// that takes a fresh s×s matrix per eigenvalue — O(s³) — holds 2.2, 4.8
// and 50 MB and fails.
func TestSweepWorkerMemoryBounded(t *testing.T) {
	for _, n := range []int{8, 10, 16} {
		p := paramsFor(t, n, 1, 1, paperOps, paperRepair)
		load1, err := p.Load()
		if err != nil {
			t.Fatal(err)
		}
		sv, err := NewSweepSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := sv.NewWorker()
		sol := new(SpectralSolution)
		for _, load := range []float64{0.6, 0.7, 0.8} {
			if err := w.SolveInto(load/load1, sol); err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(w)
		runtime.KeepAlive(sol)
		s := int64(sv.Size())
		bound := 16 * (2*int64(n) + 16) * s * s
		t.Logf("N=%d s=%d: warm worker holds %.2f MB (bound %.2f MB)", n, s, float64(held)/1e6, float64(bound)/1e6)
		if held > bound {
			t.Errorf("N=%d s=%d: warm worker holds %d bytes, want ≤ 16·(2N+16)·s² = %d", n, s, held, bound)
		}
	}
}

// TestSweepSolverHoldsNoDenseMatrix: the hoist keeps the environment as
// the description's moves, so an N = 32 SweepSolver (s = 561), not
// counting its pooled workers, retains under 1 MB; one dense s×s matrix
// alone takes 2.5 MB there.
func TestSweepSolverHoldsNoDenseMatrix(t *testing.T) {
	p := paramsFor(t, 32, 1, 1, paperOps, paperRepair)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(sv)
	t.Logf("N=32 s=%d: the hoist holds %.2f MB", sv.Size(), float64(held)/1e6)
	if held > 1<<20 {
		t.Errorf("N=32 s=%d: the hoist holds %d bytes, want < 1 MiB", sv.Size(), held)
	}
}

// TestSweepSolverEigenvaluesMatch spot-checks that a pooled solve and a
// one-shot solve agree exactly on the eigenvalue set — the piece of the
// pipeline where an order that depended on state would silently change
// everything downstream.
func TestSweepSolverEigenvaluesMatch(t *testing.T) {
	p := paramsFor(t, 5, 3.1, 1, paperOps, paperRepair)
	want, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSweepSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sv.Solve(3.1)
	if err != nil {
		t.Fatal(err)
	}
	we, ge := want.Eigenvalues(), got.Eigenvalues()
	for i := range we {
		if runtime.GOARCH == exactArch && we[i] != ge[i] {
			t.Fatalf("eigenvalue %d: %v vs %v", i, we[i], ge[i])
		}
		if math.Abs(we[i]-ge[i]) > 1e-12 {
			t.Fatalf("eigenvalue %d: %v vs %v", i, we[i], ge[i])
		}
	}
}

// TestServedNumbersPinned holds the served spectral path to L values
// recorded from the complex level-N assembly it replaced (the Sun model,
// N × load): the real level-(N−1) assembly must meet each to 1e-13
// relative, balance to 1e-13 over levels 0..N+10, and sum to 1 within
// 1e-12. Measured when it was introduced: L within 6.6e-16 relative and
// residuals ≤ 1.6e-15.
func TestServedNumbersPinned(t *testing.T) {
	for _, c := range []struct {
		n          int
		load, want float64
	}{
		{1, 0.05, 0.052634244737867694},
		{1, 0.5, 1.0000596328384557},
		{1, 0.7, 2.3335019291576926},
		{1, 0.9, 9.0009194263714623},
		{1, 0.99, 99.012455196076644},
		{1, 0.999, 999.12849432886048},
		{2, 0.05, 0.10014650747627921},
		{2, 0.5, 1.3328673446231902},
		{2, 0.7, 2.7446794573997177},
		{2, 0.9, 9.4739403712859218},
		{2, 0.99, 99.509219350999743},
		{2, 0.999, 999.62751371072579},
		{3, 0.05, 0.1498555260157925},
		{3, 0.5, 1.7357678715884093},
		{3, 0.7, 3.2476887753350998},
		{3, 0.9, 10.053041762490349},
		{3, 0.99, 100.11656255820419},
		{3, 0.999, 1000.2375070863596},
		{8, 0.05, 0.39953838576034861},
		{8, 0.5, 4.0547794313440573},
		{8, 0.7, 6.2263062941733089},
		{8, 0.9, 13.508926687094855},
		{8, 0.99, 103.73888028294709},
		{8, 0.999, 1003.8750721665896},
		{10, 0.05, 0.49942298131681084},
		{10, 0.5, 5.0305940080907368},
		{10, 0.7, 7.5105973601449136},
		{10, 0.9, 15.011849184949767},
		{10, 0.99, 105.31448218601554},
		{10, 0.999, 1005.4571984214718},
		{16, 0.05, 0.79907677008900946},
		{16, 0.5, 7.9998835721580575},
		{16, 0.7, 11.490721652292722},
		{16, 0.9, 19.709574860866283},
		{16, 0.99, 110.2419184849236},
		{16, 0.999, 1010.4048862108381},
		{20, 0.05, 0.99884596261126135},
		{20, 0.5, 9.9922397945640267},
		{20, 0.7, 14.203066749228336},
		{20, 0.9, 22.940453063208611},
		{20, 0.99, 113.63308553203201},
		{20, 0.999, 1013.8099194462736},
	} {
		p := atLoad(t, paramsFor(t, c.n, 1, 1, paperOps, paperRepair), c.load)
		sol, err := SolveSpectral(p)
		if err != nil {
			t.Fatalf("N=%d load %v: %v", c.n, c.load, err)
		}
		if d := math.Abs(sol.MeanQueue()-c.want) / c.want; d > 1e-13 {
			t.Errorf("N=%d load %v: L = %.17g, pinned %.17g (rel %.1e)", c.n, c.load, sol.MeanQueue(), c.want, d)
		}
		if r := BalanceResidual(p, sol, c.n+10); r > 1e-13 {
			t.Errorf("N=%d load %v: balance residual %.1e", c.n, c.load, r)
		}
		if d := math.Abs(sol.TotalProbability() - 1); d > 1e-12 {
			t.Errorf("N=%d load %v: total probability off by %.1e", c.n, c.load, d)
		}
	}
}
