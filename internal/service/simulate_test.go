package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func simTestSystem() core.System {
	return core.System{
		Servers:     3,
		ArrivalRate: 1.8,
		ServiceRate: 1,
		Operative:   dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091}),
		Repair:      dist.Exp(25),
	}
}

func simTestOptions() core.SimOptions {
	return core.SimOptions{
		Seed:         11,
		Warmup:       200,
		Horizon:      5000,
		Replications: 3,
	}
}

func TestEngineSimulateCaches(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	ctx := context.Background()
	a, err := eng.Simulate(ctx, simTestSystem(), simTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Simulate(ctx, simTestSystem(), simTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached result differs from the original")
	}
	st := eng.Stats()
	if st.SimRuns != 1 {
		t.Errorf("SimRuns = %d, want 1 (second call must hit the cache)", st.SimRuns)
	}
	if st.SimCache.Hits != 1 || st.SimCache.Misses != 1 || st.SimCache.Entries != 1 {
		t.Errorf("sim cache stats %+v", st.SimCache)
	}
	// The engine path must agree bit-for-bit with a direct core run.
	direct, err := simTestSystem().Simulate(simTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, direct) {
		t.Errorf("engine result %+v differs from direct %+v", a, direct)
	}
}

func TestEngineSimulateKeyIncludesSeedAndPrecision(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	ctx := context.Background()
	base := simTestOptions()
	if _, err := eng.Simulate(ctx, simTestSystem(), base); err != nil {
		t.Fatal(err)
	}
	seeded := base
	seeded.Seed = 99
	if _, err := eng.Simulate(ctx, simTestSystem(), seeded); err != nil {
		t.Fatal(err)
	}
	precise := base
	precise.RelPrecision = 0.2
	precise.Replications = 6
	if _, err := eng.Simulate(ctx, simTestSystem(), precise); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.SimRuns != 3 {
		t.Errorf("SimRuns = %d, want 3 distinct cache entries", st.SimRuns)
	}
	// Same effective configuration spelled with explicit defaults → hit.
	spelled := base
	spelled.Confidence = 0.95
	spelled.MinReplications = base.Replications // RelPrecision 0 runs them all
	if _, err := eng.Simulate(ctx, simTestSystem(), spelled); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.SimRuns != 3 {
		t.Errorf("SimRuns = %d after normalized re-request, want 3", st.SimRuns)
	}
}

func TestEngineSimulateOverridesBypassCache(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	ctx := context.Background()
	opts := simTestOptions()
	opts.Operative = dist.Deterministic{Value: 30}
	for i := 0; i < 2; i++ {
		if _, err := eng.Simulate(ctx, simTestSystem(), opts); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.SimRuns != 2 {
		t.Errorf("SimRuns = %d, want 2 (override runs are uncacheable)", st.SimRuns)
	}
	if st.SimCache.Entries != 0 {
		t.Errorf("uncacheable run left %d cache entries", st.SimCache.Entries)
	}
}

func TestEngineSimulateSingleflight(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	const callers = 8
	results := make([]core.SimResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Simulate(context.Background(), simTestSystem(), simTestOptions())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if st := eng.Stats(); st.SimRuns != 1 {
		t.Errorf("SimRuns = %d, want 1 (concurrent identical requests share one run)", st.SimRuns)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

func TestEngineSimulateBatch(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	systems := []core.System{simTestSystem(), simTestSystem(), simTestSystem()}
	systems[1].ArrivalRate = 1.2
	systems[2].Servers = 0 // invalid: must fail per-entry, not abort
	out := eng.SimulateBatch(context.Background(), systems, simTestOptions())
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].Err != nil || out[1].Err != nil {
		t.Errorf("valid entries failed: %v, %v", out[0].Err, out[1].Err)
	}
	if out[2].Err == nil {
		t.Error("invalid entry must carry its error")
	}
	if out[0].Res.MeanQueue <= out[1].Res.MeanQueue {
		t.Errorf("λ=1.8 queue %v should exceed λ=1.2 queue %v",
			out[0].Res.MeanQueue, out[1].Res.MeanQueue)
	}
	if err := FirstSimError(out); err == nil {
		t.Error("FirstSimError must surface the invalid entry")
	}
	// Entries 0 and 2 of a repeat batch: 0 hits cache.
	eng.SimulateBatch(context.Background(), systems[:1], simTestOptions())
	if st := eng.Stats(); st.SimCache.Hits == 0 {
		t.Error("repeat batch did not reuse the cache")
	}
}

func TestEngineSimulateCancellation(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Simulate(ctx, simTestSystem(), simTestOptions()); err == nil {
		t.Error("cancelled context must abort")
	}
}

// TestSimJoinerSurvivesLeaderCancellation is the simulation counterpart
// of TestJoinerSurvivesLeaderCancellation: the leader's replicated run
// waits on the held worker slot for its replications and is cancelled
// there; the joiner, whose context is live, runs the simulation itself.
func TestSimJoinerSurvivesLeaderCancellation(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	eng.sem <- struct{}{} // hold the only worker slot
	sys, opts := simTestSystem(), simTestOptions()
	type outcome struct {
		res core.SimResult
		err error
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader, joiner := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		res, err := eng.Simulate(leaderCtx, sys, opts)
		leader <- outcome{res, err}
	}()
	waitUntil(t, "the leader starts its flight", func() bool { return eng.Stats().SimCache.Misses == 1 })
	go func() {
		res, err := eng.Simulate(context.Background(), sys, opts)
		joiner <- outcome{res, err}
	}()
	waitUntil(t, "the second caller joins the flight", func() bool { return eng.Stats().SharedInFlight == 1 })
	cancel()
	if got := <-leader; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("leader: err %v, want context.Canceled", got.err)
	}
	<-eng.sem // free the slot for the joiner's own run
	got := <-joiner
	if got.err != nil {
		t.Fatalf("joiner inherited the leader's cancellation: %v", got.err)
	}
	want, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Fatalf("joiner's result %+v differs from a direct run %+v", got.res, want)
	}
	if st := eng.Stats(); st.SimErrors != 0 || st.SimCache.Entries != 1 {
		t.Fatalf("sim errors=%d entries=%d, want 0/1", st.SimErrors, st.SimCache.Entries)
	}
}
