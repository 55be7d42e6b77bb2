package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

var (
	testOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	testRepair = dist.Exp(25)
)

func testSystem(n int, lambda float64) core.System {
	return core.System{
		Servers:     n,
		ArrivalRate: lambda,
		ServiceRate: 1,
		Operative:   testOps,
		Repair:      testRepair,
	}
}

// waitUntil spins until cond holds — how the concurrency tests wait for
// an engine state change instead of sleeping — and fails the test if it
// does not within ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

func TestEvaluateMatchesDirectSolve(t *testing.T) {
	eng := NewEngine(Config{})
	sys := testSystem(10, 8)
	perf, err := eng.Evaluate(context.Background(), sys, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(perf.MeanJobs-direct.MeanJobs) > 1e-12 {
		t.Errorf("engine L = %v, direct L = %v", perf.MeanJobs, direct.MeanJobs)
	}
}

func TestEvaluateCacheHitOnRepeat(t *testing.T) {
	eng := NewEngine(Config{Workers: 2, CacheSize: 8})
	ctx := context.Background()
	sys := testSystem(6, 4)
	first, err := eng.Evaluate(ctx, sys, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Evaluate(ctx, sys, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("repeat evaluation did not return the cached pointer")
	}
	st := eng.Stats()
	if st.Solves != 1 {
		t.Errorf("solver ran %d times, want 1", st.Solves)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

func TestMethodsDoNotAliasInCache(t *testing.T) {
	eng := NewEngine(Config{CacheSize: 8})
	ctx := context.Background()
	sys := testSystem(6, 4)
	exact, err := eng.Evaluate(ctx, sys, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := eng.Evaluate(ctx, sys, core.Approximation)
	if err != nil {
		t.Fatal(err)
	}
	if exact == approx {
		t.Error("spectral and approximation shared one cache entry")
	}
	if st := eng.Stats(); st.Solves != 2 {
		t.Errorf("solver ran %d times, want 2", st.Solves)
	}
}

func TestCacheEviction(t *testing.T) {
	eng := NewEngine(Config{Workers: 1, CacheSize: 2})
	ctx := context.Background()
	for _, lambda := range []float64{3, 4, 5} {
		if _, err := eng.Evaluate(ctx, testSystem(6, lambda), core.Approximation); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Cache.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Cache.Evictions)
	}
	if st.Cache.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Cache.Entries)
	}
	// λ=3 was evicted (LRU); λ=5 must still hit.
	if _, err := eng.Evaluate(ctx, testSystem(6, 5), core.Approximation); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.Cache.Hits != st.Cache.Hits+1 {
		t.Errorf("λ=5 was not served from cache (hits %d → %d)", st.Cache.Hits, got.Cache.Hits)
	}
	if _, err := eng.Evaluate(ctx, testSystem(6, 3), core.Approximation); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.Solves != 4 {
		t.Errorf("evicted λ=3 should have re-solved: %d solves, want 4", got.Solves)
	}
}

func TestCacheDisabled(t *testing.T) {
	eng := NewEngine(Config{CacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := eng.Evaluate(ctx, testSystem(6, 4), core.Approximation); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Solves != 2 {
		t.Errorf("solver ran %d times with cache disabled, want 2", st.Solves)
	}
	if st.Cache.Capacity != 0 {
		t.Errorf("disabled cache reports capacity %d", st.Cache.Capacity)
	}
}

func TestEvaluateBatchDeterministicOrdering(t *testing.T) {
	eng := NewEngine(Config{Workers: 8})
	lambdas := []float64{3, 7, 4.5, 6, 2, 5.5, 6.5, 4, 3.5, 5}
	jobs := make([]Job, len(lambdas))
	for i, l := range lambdas {
		jobs[i] = Job{System: testSystem(8, l), Method: core.Spectral}
	}
	results := eng.EvaluateBatch(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
			continue
		}
		if r.Job.System.ArrivalRate != lambdas[i] {
			t.Errorf("result %d is for λ=%v, want %v", i, r.Job.System.ArrivalRate, lambdas[i])
		}
		// Cross-check one point against a direct solve.
		if i == 1 {
			direct, err := testSystem(8, lambdas[i]).Solve()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Perf.MeanJobs-direct.MeanJobs) > 1e-12 {
				t.Errorf("λ=%v: batch L %v vs direct %v", lambdas[i], r.Perf.MeanJobs, direct.MeanJobs)
			}
		}
	}
	// L must increase with λ at fixed N — verify via a sorted comparison.
	byLambda := map[float64]float64{}
	for i, r := range results {
		byLambda[lambdas[i]] = r.Perf.MeanJobs
	}
	if byLambda[7] <= byLambda[2] {
		t.Errorf("L(λ=7)=%v not above L(λ=2)=%v", byLambda[7], byLambda[2])
	}
}

func TestEvaluateBatchCapturesPerJobErrors(t *testing.T) {
	eng := NewEngine(Config{})
	jobs := []Job{
		{System: testSystem(8, 5), Method: core.Spectral},
		{System: testSystem(0, 5), Method: core.Spectral},  // invalid: no servers
		{System: testSystem(8, -1), Method: core.Spectral}, // invalid: negative λ
		{System: testSystem(8, 6), Method: core.Spectral},
	}
	results := eng.EvaluateBatch(context.Background(), jobs)
	if results[0].Err != nil || results[3].Err != nil {
		t.Errorf("valid jobs failed: %v, %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Error("invalid jobs did not report errors")
	}
	if err := FirstError(results); err == nil {
		t.Error("FirstError missed the failures")
	}
}

func TestEvaluateBatchCancellation(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{System: testSystem(12, 0.1+0.1*float64(i)), Method: core.Spectral}
	}
	results := eng.EvaluateBatch(ctx, jobs)
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job reported cancellation after the context was cancelled")
	}
}

func TestEvaluateValidatesBeforeSolving(t *testing.T) {
	eng := NewEngine(Config{})
	if _, err := eng.Evaluate(context.Background(), core.System{}, core.Spectral); err == nil {
		t.Error("invalid system accepted")
	}
	if st := eng.Stats(); st.Solves != 0 {
		t.Errorf("validation failure still ran the solver %d times", st.Solves)
	}
}

func TestConcurrentIdenticalEvaluationsShareOneSolve(t *testing.T) {
	eng := NewEngine(Config{Workers: 8, CacheSize: -1}) // cache off isolates dedup
	sys := testSystem(12, 9)
	const callers = 16
	var wg sync.WaitGroup
	perfs := make([]*core.Performance, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			perfs[i], errs[i] = eng.Evaluate(context.Background(), sys, core.Spectral)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	st := eng.Stats()
	if st.Solves >= callers {
		t.Errorf("%d solves for %d identical concurrent calls; dedup did nothing", st.Solves, callers)
	}
	if st.SharedInFlight == 0 {
		t.Error("no caller joined an in-flight solve")
	}
}

// TestSweepServersMatchesCore: every point of an engine N-sweep is the
// one-off core solve of its N.
func TestSweepServersMatchesCore(t *testing.T) {
	eng := NewEngine(Config{})
	base := testSystem(0, 8)
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	got, err := eng.SweepServers(context.Background(), base, cm, 9, 17, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("engine sweep has %d points, want N = 9..17", len(got))
	}
	for i, pt := range got {
		sys := base
		sys.Servers = 9 + i
		want, err := sys.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if pt.Servers != sys.Servers || !identicalF64(pt.Perf.MeanJobs, want.MeanJobs) || pt.Cost != cm.Cost(pt.Perf.MeanJobs, pt.Servers) {
			t.Errorf("point %d: N = %d, L = %v, cost %v; one-off N = %d, L = %v", i, pt.Servers, pt.Perf.MeanJobs, pt.Cost, sys.Servers, want.MeanJobs)
		}
	}
	if _, err := eng.SweepServers(context.Background(), base, cm, 5, 3, core.Spectral); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestSweepServersSkipsUnstable: λ = 8 needs at least N = 9 for stability
// (capacity 0.99885·N), so a sweep over [5, 12] holds no smaller N, and
// one over [0, 3] is rejected.
func TestSweepServersSkipsUnstable(t *testing.T) {
	eng := NewEngine(Config{})
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	sweep, err := eng.SweepServers(context.Background(), testSystem(0, 8), cm, 5, 12, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range sweep {
		if pt.Servers < 9 {
			t.Errorf("unstable N = %d included", pt.Servers)
		}
	}
	if _, err := eng.SweepServers(context.Background(), testSystem(0, 8), cm, 0, 3, core.Spectral); err == nil {
		t.Error("invalid/unstable range should fail")
	}
}

// TestSweepServersAtStabilityBoundary sweeps at λ one ulp below eq. 11's
// 8·A, where the one stability rule core and the solvers share rejects
// N = 8: the sweep starts at core.MinServersForStability, answers
// N = 9..12 and solves nothing else.
func TestSweepServersAtStabilityBoundary(t *testing.T) {
	base := testSystem(8, 0)
	base.ArrivalRate = math.Nextafter(8*base.Availability(), 0)
	if base.Stable() {
		t.Fatalf("λ = %v: N = 8 is stable; the boundary case is gone", base.ArrivalRate)
	}
	eng := NewEngine(Config{})
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	sweep, err := eng.SweepServers(context.Background(), base, cm, 8, 12, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, pt := range sweep {
		got = append(got, pt.Servers)
	}
	if !slices.Equal(got, []int{9, 10, 11, 12}) {
		t.Errorf("swept N = %v, want [9 10 11 12]", got)
	}
	if st := eng.Stats(); st.Solves != 4 || st.Errors != 0 {
		t.Errorf("%d solves, %d errors; want 4 and 0", st.Solves, st.Errors)
	}
}

func TestOptimizeServersMatchesPaper(t *testing.T) {
	eng := NewEngine(Config{})
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	// Figure 5: λ = 7, 8, 8.5 → N* = 11, 12, 13.
	for _, c := range []struct {
		lambda float64
		wantN  int
	}{{7, 11}, {8, 12}, {8.5, 13}} {
		best, err := eng.Provision(context.Background(), testSystem(0, c.lambda), core.Objective{Cost: cm}, 9, 17, core.Spectral)
		if err != nil {
			t.Fatal(err)
		}
		if best.Servers != c.wantN {
			t.Errorf("λ=%v: N* = %d, paper says %d", c.lambda, best.Servers, c.wantN)
		}
	}
}

func TestMinServersForResponseTime(t *testing.T) {
	eng := NewEngine(Config{})
	// Figure 9: λ = 7.5, W ≤ 1.5 needs at least 9 servers.
	sla := func(target float64, minN, maxN int) (core.ServerSweepPoint, error) {
		return eng.Provision(context.Background(), testSystem(0, 7.5), core.Objective{Target: target}, minN, maxN, core.Spectral)
	}
	pt, err := sla(1.5, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Servers != 9 {
		t.Errorf("min N = %d, paper says 9", pt.Servers)
	}
	if _, err := sla(-1, 1, 20); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := sla(1.5, 12, 9); err == nil {
		t.Error("inverted range accepted")
	}
	// A floor above the unconstrained answer must be respected.
	floored, err := sla(1.5, 11, 20)
	if err != nil {
		t.Fatal(err)
	}
	if floored.Servers != 11 {
		t.Errorf("min N with floor 11 = %d, want 11", floored.Servers)
	}
}

func TestSweepLambdaOrdersAndCaches(t *testing.T) {
	eng := NewEngine(Config{})
	lambdas := []float64{4, 5, 6, 7}
	perfs, err := eng.SweepLambda(context.Background(), testSystem(10, 0), lambdas, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(perfs); i++ {
		if perfs[i].MeanJobs <= perfs[i-1].MeanJobs {
			t.Errorf("L not increasing with λ at index %d", i)
		}
	}
	// A second, overlapping sweep must be served from cache.
	before := eng.Stats().Solves
	if _, err := eng.SweepLambda(context.Background(), testSystem(10, 0), lambdas[1:], core.Spectral); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats().Solves; after != before {
		t.Errorf("overlapping sweep re-ran %d solves", after-before)
	}
}

func TestCacheHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 0 {
		t.Error("empty stats should report 0 hit rate")
	}
	s = CacheStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", s.HitRate())
	}
}

// TestJoinerSurvivesLeaderCancellation holds the only worker slot so the
// leader of a solve waits for it, lets a second caller join the flight,
// then cancels the leader. The joiner's context is live, so it must not
// inherit the leader's cancellation: it looks again, leads its own solve
// once the slot frees, and returns the right answer.
func TestJoinerSurvivesLeaderCancellation(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	eng.sem <- struct{}{} // hold the only worker slot
	sys := testSystem(4, 2)
	type outcome struct {
		perf *core.Performance
		err  error
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader, joiner := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		perf, err := eng.Evaluate(leaderCtx, sys, core.Spectral)
		leader <- outcome{perf, err}
	}()
	waitUntil(t, "the leader starts its flight", func() bool { return eng.Stats().Cache.Misses == 1 })
	go func() {
		perf, err := eng.Evaluate(context.Background(), sys, core.Spectral)
		joiner <- outcome{perf, err}
	}()
	waitUntil(t, "the second caller joins the flight", func() bool { return eng.Stats().SharedInFlight == 1 })
	cancel()
	if got := <-leader; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("leader: err %v, want context.Canceled", got.err)
	}
	<-eng.sem // free the slot for the joiner's own solve
	got := <-joiner
	if got.err != nil {
		t.Fatalf("joiner inherited the leader's cancellation: %v", got.err)
	}
	want, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !identicalF64(want.MeanJobs, got.perf.MeanJobs) {
		t.Fatalf("joiner's L = %v, want %v", got.perf.MeanJobs, want.MeanJobs)
	}
	if st := eng.Stats(); st.Solves != 1 || st.Errors != 0 {
		t.Fatalf("solves=%d errors=%d, want 1/0 (the cancelled leader never ran)", st.Solves, st.Errors)
	}
}
