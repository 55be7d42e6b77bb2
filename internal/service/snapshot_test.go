package service

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestExportWarmRoundTrip proves the warm-restart path end to end at the
// engine level: entries exported from one engine, round-tripped through
// JSON (as the on-disk snapshot does), warm a second engine, whose first
// evaluation of the same configuration is then a cache hit — no solver
// run — with the wire-visible performance fields intact.
func TestExportWarmRoundTrip(t *testing.T) {
	hot := NewEngine(Config{Workers: 2})
	sys := testSystem(3, 0.9)
	want, err := hot.Evaluate(context.Background(), sys, core.Spectral)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	snap := hot.ExportCaches(0)
	if len(snap.Solves) != 1 {
		t.Fatalf("exported %d solver entries, want 1", len(snap.Solves))
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var decoded CacheSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}

	cold := NewEngine(Config{Workers: 2})
	if n := cold.WarmCaches(decoded); n != 1 {
		t.Fatalf("WarmCaches restored %d entries, want 1", n)
	}
	if s := cold.Stats(); s.WarmedEntries != 1 {
		t.Fatalf("WarmedEntries = %d, want 1", s.WarmedEntries)
	}
	got, err := cold.Evaluate(context.Background(), sys, core.Spectral)
	if err != nil {
		t.Fatalf("warmed Evaluate: %v", err)
	}
	s := cold.Stats()
	if s.Solves != 0 || s.Cache.Hits != 1 {
		t.Fatalf("warmed evaluation ran the solver: solves=%d hits=%d", s.Solves, s.Cache.Hits)
	}
	if got.MeanJobs != want.MeanJobs || got.MeanResponse != want.MeanResponse ||
		got.TailDecay != want.TailDecay || got.Load != want.Load {
		t.Fatalf("warmed performance diverged: got %+v, want %+v", got, want)
	}
}

// TestExportCachesMRULimit checks that a truncated export keeps the most
// recently used entries.
func TestExportCachesMRULimit(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	for _, lam := range []float64{0.3, 0.6, 0.9} {
		if _, err := e.Evaluate(context.Background(), testSystem(3, lam), core.Spectral); err != nil {
			t.Fatalf("Evaluate(λ=%g): %v", lam, err)
		}
	}
	snap := e.ExportCaches(2)
	if len(snap.Solves) != 2 {
		t.Fatalf("exported %d entries, want 2", len(snap.Solves))
	}
	mru := jobKey(Job{System: testSystem(3, 0.9), Method: core.Spectral})
	if snap.Solves[0].Key != mru {
		t.Fatalf("MRU entry is %q, want %q", snap.Solves[0].Key, mru)
	}
}

// TestBatchCountersOnSweep checks the PR 7 routing counters move on a
// real batched sweep: one group constructed, no fallbacks.
func TestBatchCountersOnSweep(t *testing.T) {
	e := NewEngine(Config{Workers: 2})
	if _, err := e.SweepLambda(context.Background(), testSystem(3, 0), []float64{0.2, 0.4, 0.6}, core.Spectral); err != nil {
		t.Fatalf("SweepLambda: %v", err)
	}
	s := e.Stats()
	if s.BatchGroups != 1 || s.BatchFallbacks != 0 {
		t.Fatalf("batch counters after a clean sweep: groups=%d fallbacks=%d, want 1/0", s.BatchGroups, s.BatchFallbacks)
	}
}

// TestMemoizedEntryIsSteadyState checks the memo's shape: the leader of a
// solve, a caller that joined its flight and a later cache hit all get
// one pointer to a steady-state block that keeps no solution, equal field
// for field to the entry a snapshot round trip restores.
func TestMemoizedEntryIsSteadyState(t *testing.T) {
	hot := NewEngine(Config{Workers: 1})
	hot.sem <- struct{}{} // hold the slot so a second caller can join
	sys := testSystem(3, 0.9)
	perfs := make(chan *core.Performance, 2)
	evaluate := func() {
		perf, err := hot.Evaluate(context.Background(), sys, core.Spectral)
		if err != nil {
			t.Error(err)
		}
		perfs <- perf
	}
	go evaluate()
	waitUntil(t, "the leader starts its flight", func() bool { return hot.Stats().Cache.Misses == 1 })
	go evaluate()
	waitUntil(t, "the second caller joins the flight", func() bool { return hot.Stats().SharedInFlight == 1 })
	<-hot.sem
	first, second := <-perfs, <-perfs
	hit, err := hot.Evaluate(context.Background(), sys, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || first != second || first != hit {
		t.Fatalf("leader, joiner and hit got different pointers: %p %p %p", first, second, hit)
	}
	if hit.Solution() != nil {
		t.Fatal("the memo pins a full solution")
	}

	raw, err := json.Marshal(hot.ExportCaches(0))
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var snap CacheSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	cold := NewEngine(Config{})
	cold.WarmCaches(snap)
	warmed, err := cold.Evaluate(context.Background(), sys, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats().Solves != 0 {
		t.Fatal("the warmed engine solved instead of hitting its cache")
	}
	if !reflect.DeepEqual(hit, warmed) {
		t.Fatalf("memoised entry %+v differs from the warmed entry %+v", hit, warmed)
	}
}
