package service

import "repro/internal/obs"

// RegisterMetrics exposes the engine's counters and both caches on a
// metrics registry. Everything is collected at scrape time from the
// atomics (and mutex-guarded cache counters) the engine already keeps for
// Stats, so the evaluation hot path gains no new writes. Call once per
// engine per registry; duplicate registration panics by design.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("mus_engine_evaluations_total",
		"Evaluations answered by any means: cache hit, in-flight join, or fresh solve.",
		e.evals.Load)
	r.CounterFunc("mus_engine_solves_total",
		"Solver invocations that actually ran (evaluations minus cache hits and joins).",
		e.solves.Load)
	r.CounterFunc("mus_engine_solver_errors_total",
		"Solver invocations that returned an error.",
		e.errs.Load)
	r.CounterFunc("mus_engine_shared_inflight_total",
		"Evaluations deduplicated by joining an identical in-flight solve.",
		e.shared.Load)
	r.CounterFunc("mus_engine_sim_runs_total",
		"Replicated simulations that actually ran.",
		e.simRuns.Load)
	r.CounterFunc("mus_engine_sim_errors_total",
		"Replicated simulations that failed.",
		e.simErrs.Load)
	r.CounterFunc("mus_engine_batch_groups_total",
		"Hoisted spectral solvers constructed (λ-invariant work built once per environment).",
		e.batchGroups.Load)
	r.CounterFunc("mus_engine_batch_fallbacks_total",
		"Spectral solves run without the hoisted solver after it failed to build.",
		e.batchFallbacks.Load)
	r.CounterFunc("mus_engine_warmed_entries_total",
		"Cache entries restored from a boot snapshot.",
		e.warmed.Load)
	r.GaugeFunc("mus_engine_workers",
		"Configured solver concurrency bound (the engine-wide gate).",
		func() float64 { return float64(e.workers) })
	registerCacheMetrics(r, "solver", e.cache)
	registerCacheMetrics(r, "sim", e.simCache)
}

// registerCacheMetrics exposes one LRU cache's counters under the shared
// mus_cache_* family, discriminated by the cache label. A disabled
// (nil) cache registers nothing — absent series read cleaner than
// permanent zeros.
func registerCacheMetrics[V any](r *obs.Registry, name string, c *lruCache[V]) {
	if c == nil {
		return
	}
	lbl := obs.L("cache", name)
	r.CounterFunc("mus_cache_hits_total",
		"Cache lookups answered from memory.",
		func() uint64 { return c.stats().Hits }, lbl)
	r.CounterFunc("mus_cache_misses_total",
		"Cache lookups that led a fresh run (in-flight joins count as neither hit nor miss).",
		func() uint64 { return c.stats().Misses }, lbl)
	r.CounterFunc("mus_cache_evictions_total",
		"Entries displaced by the LRU policy.",
		func() uint64 { return c.stats().Evictions }, lbl)
	r.GaugeFunc("mus_cache_entries",
		"Entries currently cached.",
		func() float64 { return float64(c.stats().Entries) }, lbl)
	r.GaugeFunc("mus_cache_capacity",
		"Configured maximum number of entries.",
		func() float64 { return float64(c.stats().Capacity) }, lbl)
}
