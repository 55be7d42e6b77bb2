package service

import "repro/internal/core"

// This file is the engine's warm-restart surface: a serializable snapshot
// of the two LRU caches that internal/store persists periodically and a
// restarted node loads on boot, so its first owned-fingerprint solve is a
// cache hit instead of a cold spectral run. Snapshots are advisory — a
// missing, stale or truncated one only costs warmth, never correctness —
// because cache keys are canonical fingerprints: a key either matches a
// future request exactly or is never looked up.
//
// Solver entries carry only core.Performance's exported steady-state
// fields — memoised entries are stored that way (Performance.SteadyState)
// and restored ones can hold nothing more, since the spectral solution is
// not serializable — so a warmed entry has exactly the shape of a
// memoised one. Those fields are all that any HTTP response path reads.
// Callers needing the deeper solution structure (QueueProb,
// OperativeBreakdown) solve through core directly.

// CachedSolve is one solver-cache entry in snapshot form.
type CachedSolve struct {
	// Key is the engine's cache key: system fingerprint + solver method.
	Key string `json:"key"`
	// Perf is the memoised steady-state block (exported fields only).
	Perf *core.Performance `json:"perf"`
}

// CachedSim is one simulation-cache entry in snapshot form.
type CachedSim struct {
	// Key is the engine's simulation cache key: system fingerprint +
	// normalized simulation options.
	Key string `json:"key"`
	// Result is the memoised simulation output (fully exported).
	Result core.SimResult `json:"result"`
}

// CacheSnapshot is the engine's serializable cache state.
type CacheSnapshot struct {
	// Solves holds solver-cache entries, most recently used first.
	Solves []CachedSolve `json:"solves,omitempty"`
	// Sims holds simulation-cache entries, most recently used first.
	Sims []CachedSim `json:"sims,omitempty"`
}

// ExportCaches snapshots up to limit entries per cache (MRU first;
// limit <= 0 exports everything). The snapshot shares the cached
// *core.Performance pointers — safe because cached values are immutable
// by the cache's own contract.
func (e *Engine) ExportCaches(limit int) CacheSnapshot {
	var snap CacheSnapshot
	if e.cache != nil {
		keys, vals := e.cache.export(limit)
		snap.Solves = make([]CachedSolve, len(keys))
		for i := range keys {
			snap.Solves[i] = CachedSolve{Key: keys[i], Perf: vals[i]}
		}
	}
	if e.simCache != nil {
		keys, vals := e.simCache.export(limit)
		snap.Sims = make([]CachedSim, len(keys))
		for i := range keys {
			snap.Sims[i] = CachedSim{Key: keys[i], Result: vals[i]}
		}
	}
	return snap
}

// WarmCaches inserts snapshot entries into the engine caches and returns
// how many were restored. Entries are inserted oldest first so the
// snapshot's MRU order survives as the cache's LRU order; nil-performance
// entries (a hand-edited or corrupt snapshot) are skipped.
func (e *Engine) WarmCaches(snap CacheSnapshot) int {
	restored := 0
	if e.cache != nil {
		for i := len(snap.Solves) - 1; i >= 0; i-- {
			s := snap.Solves[i]
			if s.Key == "" || s.Perf == nil {
				continue
			}
			e.cache.add(s.Key, s.Perf)
			restored++
		}
	}
	if e.simCache != nil {
		for i := len(snap.Sims) - 1; i >= 0; i-- {
			s := snap.Sims[i]
			if s.Key == "" {
				continue
			}
			e.simCache.add(s.Key, s.Result)
			restored++
		}
	}
	e.warmed.Add(uint64(restored))
	return restored
}
