package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/qbd"
)

// identicalF64 is the hoisted solver's equivalence contract with a fresh
// one-shot solve: bit-identical on amd64, 1e-12 relative elsewhere.
func identicalF64(a, b float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a))
}

// TestSweepLambdaBatchedMatchesScalar runs a λ-sweep through the engine
// (which batches it on pooled workers) and compares every point to a
// direct one-shot solve, including queue tails and mode marginals. Caching
// is disabled so each point genuinely exercises the batched solver.
func TestSweepLambdaBatchedMatchesScalar(t *testing.T) {
	eng := NewEngine(Config{CacheSize: -1})
	base := testSystem(6, 1)
	lambdas := make([]float64, 24)
	for i := range lambdas {
		lambdas[i] = 0.4 + 5.2*float64(i)/23
	}
	perfs, err := eng.SweepLambda(context.Background(), base, lambdas, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lambdas {
		sys := base
		sys.ArrivalRate = l
		want, err := sys.Solve()
		if err != nil {
			t.Fatal(err)
		}
		got := perfs[i]
		if !identicalF64(want.MeanJobs, got.MeanJobs) ||
			!identicalF64(want.MeanResponse, got.MeanResponse) ||
			!identicalF64(want.TailDecay, got.TailDecay) ||
			!identicalF64(want.Load, got.Load) {
			t.Fatalf("λ=%v: performance diverges: %+v vs %+v", l, want, got)
		}
		for j := 0; j <= 10; j++ {
			if !identicalF64(want.QueueProb(j), got.QueueProb(j)) {
				t.Fatalf("λ=%v: QueueProb(%d) %v vs %v", l, j, want.QueueProb(j), got.QueueProb(j))
			}
			if !identicalF64(want.QueueTail(j), got.QueueTail(j)) {
				t.Fatalf("λ=%v: QueueTail(%d) %v vs %v", l, j, want.QueueTail(j), got.QueueTail(j))
			}
		}
		wm, gm := want.ModeMarginals(), got.ModeMarginals()
		for k := range wm {
			if !identicalF64(wm[k], gm[k]) {
				t.Fatalf("λ=%v: marginal %d %v vs %v", l, k, wm[k], gm[k])
			}
		}
	}
}

// TestSweepLambdaConcurrentRace is the pooled-workspace canary: many
// goroutines sweep overlapping λ-grids through one engine with caching
// off, so concurrent points continuously check workspaces in and out of
// the shared pools. Every result is checked against a precomputed one-shot
// solve — an aliased or torn workspace surfaces as a wrong mean.
// CI runs this under -race.
func TestSweepLambdaConcurrentRace(t *testing.T) {
	eng := NewEngine(Config{Workers: 8, CacheSize: -1})
	base := testSystem(4, 1)
	lambdas := make([]float64, 12)
	want := make([]float64, 12)
	for i := range lambdas {
		lambdas[i] = 0.3 + 3.0*float64(i)/11
		sys := base
		sys.ArrivalRate = lambdas[i]
		perf, err := sys.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = perf.MeanJobs
	}
	const sweeps = 6
	var wg sync.WaitGroup
	failures := make(chan error, sweeps)
	for s := 0; s < sweeps; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Rotate the grid per goroutine so different points collide in
			// the pool at the same instant.
			grid := make([]float64, len(lambdas))
			for i := range grid {
				grid[i] = lambdas[(i+s)%len(lambdas)]
			}
			perfs, err := eng.SweepLambda(context.Background(), base, grid, core.Spectral)
			if err != nil {
				failures <- err
				return
			}
			for i, p := range perfs {
				if !identicalF64(want[(i+s)%len(want)], p.MeanJobs) {
					failures <- errors.New("concurrent sweep result diverged from scalar reference")
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}
}

// TestEvaluateBatchMidSweepError submits a sweep whose middle points are
// unstable: the good points must still match one-shot solves exactly and
// the bad ones must carry their errors — a mid-sweep failure cannot poison
// the group's shared solver state.
func TestEvaluateBatchMidSweepError(t *testing.T) {
	eng := NewEngine(Config{CacheSize: -1})
	base := testSystem(3, 1)
	lambdas := []float64{0.8, 1.4, 500, 2.0, -1, 2.4}
	jobs := make([]Job, len(lambdas))
	for i, l := range lambdas {
		sys := base
		sys.ArrivalRate = l
		jobs[i] = Job{System: sys, Method: core.Spectral}
	}
	results := eng.EvaluateBatch(context.Background(), jobs)
	for i, r := range results {
		sys := base
		sys.ArrivalRate = lambdas[i]
		want, wantErr := sys.Solve()
		if (wantErr == nil) != (r.Err == nil) {
			t.Fatalf("λ=%v: scalar err %v, batch err %v", lambdas[i], wantErr, r.Err)
		}
		if wantErr != nil {
			if wantErr.Error() != r.Err.Error() {
				t.Fatalf("λ=%v: error text %q vs %q", lambdas[i], wantErr, r.Err)
			}
			if errors.Is(wantErr, qbd.ErrUnstable) != errors.Is(r.Err, qbd.ErrUnstable) {
				t.Fatalf("λ=%v: ErrUnstable identity differs", lambdas[i])
			}
			continue
		}
		if !identicalF64(want.MeanJobs, r.Perf.MeanJobs) {
			t.Fatalf("λ=%v: MeanJobs %v vs %v after mid-sweep errors", lambdas[i], want.MeanJobs, r.Perf.MeanJobs)
		}
	}
}

// TestBatchedSweepSharesCache checks the cache interplay: a batched sweep
// populates the same keys a lone Evaluate reads, so re-evaluating any
// point afterwards is a pure cache hit returning the identical pointer.
func TestBatchedSweepSharesCache(t *testing.T) {
	eng := NewEngine(Config{CacheSize: 64})
	base := testSystem(4, 1)
	lambdas := []float64{0.5, 1.0, 1.5, 2.0}
	perfs, err := eng.SweepLambda(context.Background(), base, lambdas, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	solvesAfterSweep := eng.Stats().Solves
	for i, l := range lambdas {
		sys := base
		sys.ArrivalRate = l
		cached, err := eng.Evaluate(context.Background(), sys, core.Spectral)
		if err != nil {
			t.Fatal(err)
		}
		if cached != perfs[i] {
			t.Fatalf("λ=%v: cache returned a different pointer than the batched sweep", l)
		}
	}
	if st := eng.Stats(); st.Solves != solvesAfterSweep {
		t.Fatalf("re-evaluating swept points ran %d extra solves", st.Solves-solvesAfterSweep)
	}
}

// TestMixedBatchGroupsOnlySweeps checks hoisting boundaries: jobs from
// different environments and non-spectral methods coexist in one batch,
// each solved correctly — spectral jobs through their own environment's
// hoisted solver, non-spectral jobs through System.SolveWith.
func TestMixedBatchGroupsOnlySweeps(t *testing.T) {
	eng := NewEngine(Config{CacheSize: -1})
	mk := func(n int, l float64, m core.Method) Job {
		return Job{System: testSystem(n, l), Method: m}
	}
	jobs := []Job{
		mk(3, 1.0, core.Spectral), // group A (×3)
		mk(3, 1.5, core.Spectral),
		mk(3, 2.0, core.Spectral),
		mk(4, 1.0, core.Spectral),      // singleton: different environment
		mk(3, 1.0, core.Approximation), // non-spectral, same environment
	}
	results := eng.EvaluateBatch(context.Background(), jobs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
		want, err := r.Job.System.SolveWith(r.Job.Method)
		if err != nil {
			t.Fatal(err)
		}
		if !identicalF64(want.MeanJobs, r.Perf.MeanJobs) {
			t.Fatalf("job %d: MeanJobs %v vs %v", r.Index, want.MeanJobs, r.Perf.MeanJobs)
		}
	}
}

// TestSweepGroupConstructionFallback checks that a hoist whose batch
// solver cannot be built falls back to the scalar path and reports the
// scalar error text. An unstable base is fine for construction (rates are
// per-point), so the failure is forced with a zero service rate, which
// only validation catches.
func TestSweepGroupConstructionFallback(t *testing.T) {
	bad := testSystem(3, 1)
	bad.ServiceRate = 0
	h := new(hoist)
	e := NewEngine(Config{})
	_, err := h.solve(e, bad, false)
	if err == nil {
		t.Fatal("expected an error from the fallback scalar solve")
	}
	if s := e.Stats(); s.BatchGroups != 1 || s.BatchFallbacks != 1 {
		t.Fatalf("batch counters after a fallback: groups=%d fallbacks=%d, want 1/1", s.BatchGroups, s.BatchFallbacks)
	}
	_, wantErr := bad.SolveWith(core.Spectral)
	if wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("fallback error %q, scalar error %q", err, wantErr)
	}
	if !strings.Contains(err.Error(), "service rate") {
		t.Fatalf("unexpected error %q", err)
	}
}

// TestHoistFromNaNRateStaysBatched checks that an environment's hoist
// first touched by a NaN-rate system is still built: that point reports
// the validation error, and later valid rates solve through the batched
// path (no fallback) with one-shot solves' results. It takes the
// steady-state path a memoising engine takes.
func TestHoistFromNaNRateStaysBatched(t *testing.T) {
	h := new(hoist)
	e := NewEngine(Config{})
	bad := testSystem(3, math.NaN())
	wantErr := bad.Validate()
	if wantErr == nil {
		t.Fatal("a NaN arrival rate passed validation")
	}
	if _, err := h.solve(e, bad, true); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("NaN rate: got %v, want the validation error %v", err, wantErr)
	}
	sys := testSystem(3, 1.2)
	got, err := h.solve(e, sys, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !identicalF64(want.MeanJobs, got.MeanJobs) {
		t.Fatalf("MeanJobs %v vs %v", want.MeanJobs, got.MeanJobs)
	}
	if s := e.Stats(); s.BatchGroups != 1 || s.BatchFallbacks != 0 {
		t.Fatalf("groups=%d fallbacks=%d, want 1/0", s.BatchGroups, s.BatchFallbacks)
	}
}

// TestEvaluateReusesEnvironmentHoist checks the engine-wide hoist cache:
// separate single-point evaluations at distinct λ in one environment
// build exactly one solver, and every result matches a one-shot solve.
func TestEvaluateReusesEnvironmentHoist(t *testing.T) {
	eng := NewEngine(Config{})
	base := testSystem(5, 1)
	lambdas := []float64{0.5, 1.1, 1.7, 2.3, 2.9, 3.5}
	for _, l := range lambdas {
		sys := base
		sys.ArrivalRate = l
		got, err := eng.Evaluate(context.Background(), sys, core.Spectral)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !identicalF64(want.MeanJobs, got.MeanJobs) ||
			!identicalF64(want.MeanResponse, got.MeanResponse) ||
			!identicalF64(want.TailDecay, got.TailDecay) ||
			!identicalF64(want.Load, got.Load) {
			t.Fatalf("λ=%v: performance diverges: %+v vs %+v", l, want, got)
		}
	}
	if st := eng.Stats(); st.BatchGroups != 1 || st.BatchFallbacks != 0 || st.Solves != uint64(len(lambdas)) {
		t.Fatalf("groups=%d fallbacks=%d solves=%d, want 1/0/%d", st.BatchGroups, st.BatchFallbacks, st.Solves, len(lambdas))
	}
}

// TestHoistConcurrentFirstTouch releases many evaluations of one new
// environment at once, each at its own λ so none joins another's flight:
// the environment's solver must still be built exactly once. CI runs this
// under -race.
func TestHoistConcurrentFirstTouch(t *testing.T) {
	eng := NewEngine(Config{Workers: 8})
	base := testSystem(4, 1)
	const callers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys := base
			sys.ArrivalRate = 0.2 + 0.2*float64(i)
			<-start
			got, err := eng.Evaluate(context.Background(), sys, core.Spectral)
			if err != nil {
				errs[i] = err
				return
			}
			want, err := sys.Solve()
			if err != nil {
				errs[i] = err
				return
			}
			if !identicalF64(want.MeanJobs, got.MeanJobs) {
				errs[i] = errors.New("concurrent first-touch result diverged from the scalar solve")
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if st := eng.Stats(); st.BatchGroups != 1 || st.Solves != callers {
		t.Fatalf("groups=%d solves=%d, want 1/%d", st.BatchGroups, st.Solves, callers)
	}
}

// TestHoistCacheEvictsLRU fills the hoist cache one environment past its
// capacity: the least recently used environment is evicted, an
// environment still cached is reused, and touching the evicted one again
// rebuilds it.
func TestHoistCacheEvictsLRU(t *testing.T) {
	eng := NewEngine(Config{})
	env := func(k int, lambda float64) core.System {
		sys := testSystem(2, lambda)
		sys.ServiceRate = 1 + float64(k)/64 // a distinct environment per k
		return sys
	}
	evaluate := func(sys core.System) {
		t.Helper()
		if _, err := eng.Evaluate(context.Background(), sys, core.Spectral); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k <= hoistCacheSize; k++ {
		evaluate(env(k, 0.5))
	}
	if st := eng.Stats(); st.BatchGroups != hoistCacheSize+1 {
		t.Fatalf("built %d solvers for %d environments", st.BatchGroups, hoistCacheSize+1)
	}
	if hs := eng.hoists.stats(); hs.Evictions != 1 || hs.Entries != hoistCacheSize {
		t.Fatalf("hoist cache evictions=%d entries=%d, want 1/%d", hs.Evictions, hs.Entries, hoistCacheSize)
	}
	evaluate(env(1, 0.6)) // still cached: a new λ reuses its solver
	if st := eng.Stats(); st.BatchGroups != hoistCacheSize+1 {
		t.Fatalf("a cached environment was rebuilt: %d solvers", st.BatchGroups)
	}
	evaluate(env(0, 0.6)) // evicted first, as least recently used
	if st := eng.Stats(); st.BatchGroups != hoistCacheSize+2 {
		t.Fatalf("the evicted environment was not rebuilt: %d solvers, want %d", st.BatchGroups, hoistCacheSize+2)
	}
}
