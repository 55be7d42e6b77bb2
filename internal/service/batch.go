package service

// This file is the engine's hoisted-solver cache. Part of a cold spectral
// solve is λ-independent — the server description, qbd's enumeration of
// its modes and their lumping into each mode's moves, the service
// capacity and the factored eigen stage's tables — and every
// configuration that differs from another in at most λ shares it. The
// engine therefore keeps one LRU of core.BatchSolvers keyed by
// core.System.EnvFingerprint, and every spectral cache miss — a lone
// Evaluate, a sweep or job point, an admission refit — solves through its
// environment's shared solver, building it on first touch.
//
// A point solved through a shared solver is bit-identical to a one-off
// System.Solve of the same configuration (on amd64; internal/qbd's
// metamorphic suite checks that a reused worker reproduces a fresh one),
// so nothing else depends on it: cache keys, in-flight sharing, NDJSON
// streaming order and per-point errors are exactly as if every point had
// been solved on its own.

import (
	"sync"

	"repro/internal/core"
)

// hoistCacheSize bounds the hoisted-solver cache. An entry for an
// environment of s modes holds no s×s matrix and no mode list: each
// mode's operative count, the service diagonals, each mode's moves and
// the factored eigen stage's composition tables, O(s·(N+k²)) numbers for
// k phases per server. Measured for the paper's H2/exp model: 20 KB at
// N = 10, 146 KB at N = 24, 318 KB at N = 32. Each pooled per-point worker adds an O(N·s²)
// workspace while it solves and until the next GC drops it — chiefly the
// N−1 boundary stages: 0.28, 0.67 and 6.5 MB at N = 8, 10 and 16, about
// 15 MB at N = 20 (qbd's TestSweepWorkerMemoryBounded). 32 entries cover
// the environments of a figure run or a planner's working set at a
// bounded cost.
const hoistCacheSize = 32

// hoist is one environment's shared solver. The first miss to reach it
// builds the BatchSolver, exactly once however many arrive concurrently;
// a failed construction is kept as well, since it fails the same way for
// every λ.
type hoist struct {
	once sync.Once
	bs   *core.BatchSolver
	err  error
}

// solve evaluates sys through the shared solver: the steady-state block
// alone (BatchSolver.SolveSteady) when steady is set, the full solve
// otherwise. When construction failed, it solves sys on its own with
// System.SolveWith, which reports the configuration's error with its usual
// precedence, keeping error text identical to an unhoisted solve. The
// engine's batch counters record both outcomes: one BatchGroups tick per
// construction and one BatchFallbacks tick per point solved without the
// hoisted solver after it failed to build.
func (h *hoist) solve(e *Engine, sys core.System, steady bool) (*core.Performance, error) {
	h.once.Do(func() {
		h.bs, h.err = core.NewBatchSolver(sys)
		e.batchGroups.Add(1)
	})
	if h.err != nil {
		e.batchFallbacks.Add(1)
		return sys.SolveWith(core.Spectral)
	}
	if steady {
		return h.bs.SolveSteady(sys.ArrivalRate)
	}
	return h.bs.Solve(sys.ArrivalRate)
}

// solve runs one cache miss: spectral configurations through their
// environment's hoisted solver, the other methods — which have no hoisted
// form — through System.SolveWith. With steady set the caller keeps only
// the steady-state block, so a spectral miss solves for that alone.
func (e *Engine) solve(sys core.System, m core.Method, steady bool) (*core.Performance, error) {
	if m != core.Spectral {
		return sys.SolveWith(m)
	}
	h := e.hoists.getOrAdd(sys.EnvFingerprint(), func() *hoist { return new(hoist) })
	return h.solve(e, sys, steady)
}
