// Package service is the shared model-evaluation subsystem: a bounded
// worker pool that solves batches of core.System configurations
// concurrently, backed by an LRU memoization of solver output keyed by the
// canonical system fingerprint and an LRU of hoisted spectral solvers
// keyed by the environment fingerprint. The paper's workload — dense λ- and
// N-sweeps for Figures 4–9 and the cost optimisation — is embarrassingly
// parallel and highly repetitive, so every figure run, benchmark and
// mus-serve request routes through one engine and shares its cache.
//
// The engine also fronts the replicated discrete-event simulator
// (Simulate, SimulateBatch): simulation results are memoised in their own
// LRU keyed by (fingerprint, seed, precision) — simulation output is
// deterministic for a fixed request, so a cached result is
// indistinguishable from a fresh run — with concurrent identical requests
// joining one in-flight run exactly like solver evaluations.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// Config tunes an Engine. The zero value selects a worker per CPU, a
// 4096-entry solution cache and a 256-entry simulation cache.
type Config struct {
	// Workers bounds concurrent solver invocations (default GOMAXPROCS).
	Workers int
	// CacheSize is the maximum number of memoised solutions; negative
	// disables caching entirely (default 4096).
	CacheSize int
	// SimCacheSize is the maximum number of memoised simulation results;
	// negative disables the simulation cache (default 256 — simulation
	// output is far larger and far more expensive than solver output, so
	// the two families never share a cache or evict each other).
	SimCacheSize int
}

// DefaultCacheSize is the solver-cache capacity used when Config.CacheSize
// is 0.
const DefaultCacheSize = 4096

// DefaultSimCacheSize is the simulation-cache capacity used when
// Config.SimCacheSize is 0.
const DefaultSimCacheSize = 256

// Engine evaluates system configurations on a bounded worker pool with
// solver memoization. It is safe for concurrent use.
type Engine struct {
	workers  int
	cache    *lruCache[*core.Performance]
	simCache *lruCache[core.SimResult]
	// sem is the engine-wide solver gate: every solver invocation — from
	// Evaluate, any number of concurrent EvaluateBatch calls, or both —
	// holds one slot, so total concurrency never exceeds Workers.
	sem chan struct{}

	// hoists caches one hoisted spectral solver per environment; every
	// spectral cache miss solves through it (see batch.go).
	hoists *lruCache[*hoist]

	mu          sync.Mutex
	inflight    map[string]*flight[*core.Performance]
	simInflight map[string]*flight[core.SimResult]

	evals          atomic.Uint64 // evaluations answered by any means
	solves         atomic.Uint64 // solver invocations that actually ran
	errs           atomic.Uint64 // solver invocations that returned an error
	shared         atomic.Uint64 // evaluations that joined an in-flight solve
	simRuns        atomic.Uint64 // replicated simulations that actually ran
	simErrs        atomic.Uint64 // replicated simulations that failed
	batchGroups    atomic.Uint64 // hoisted spectral solvers constructed
	batchFallbacks atomic.Uint64 // spectral solves run without the hoisted solver after it failed to build
	warmed         atomic.Uint64 // cache entries restored from a snapshot
}

// flight is one in-progress run — a solve or a simulation — that
// concurrent callers of the same key join instead of duplicating.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// abandoned marks a run that failed after its leader's context ended:
	// the error is most likely the leader's own cancellation, which a
	// joiner whose context is still live must not inherit.
	abandoned bool
}

// memoized answers key from cache, by joining the in-flight run of the
// same key, or by leading run itself and handing its result to the cache
// (on success) and to every joiner. A joiner whose leader gave up looks
// again — cache, join or lead — unless its own context has ended too, so
// one client's cancellation never fails another's request. A nil cache
// disables memoisation but not in-flight sharing.
func memoized[V any](ctx context.Context, e *Engine, cache *lruCache[V], inflight map[string]*flight[V], key string, run func() (V, error)) (V, error) {
	for {
		if cache != nil {
			if v, ok := cache.get(key); ok {
				cache.recordHit()
				return v, nil
			}
		}
		e.mu.Lock()
		if f, ok := inflight[key]; ok {
			e.mu.Unlock()
			// Joining an in-flight run is neither a cache hit nor a miss —
			// nothing runs for this caller and nothing was served from
			// memory — so it only moves the SharedInFlight counter.
			e.shared.Add(1)
			select {
			case <-f.done:
				if f.abandoned && ctx.Err() == nil {
					continue
				}
				return f.val, f.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		inflight[key] = f
		e.mu.Unlock()
		if cache != nil {
			cache.recordMiss()
		}
		f.val, f.err = run()
		f.abandoned = f.err != nil && ctx.Err() != nil
		if f.err == nil && cache != nil {
			cache.add(key, f.val)
		}
		e.mu.Lock()
		delete(inflight, key)
		e.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// NewEngine builds an engine from the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	simSize := cfg.SimCacheSize
	if simSize == 0 {
		simSize = DefaultSimCacheSize
	}
	return &Engine{
		workers:     cfg.Workers,
		cache:       newLRUCache[*core.Performance](size), // nil when size < 0
		simCache:    newLRUCache[core.SimResult](simSize),
		sem:         make(chan struct{}, cfg.Workers),
		hoists:      newLRUCache[*hoist](hoistCacheSize),
		inflight:    make(map[string]*flight[*core.Performance]),
		simInflight: make(map[string]*flight[core.SimResult]),
	}
}

// Workers returns the configured solver concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Job is one evaluation request: a system plus the solver to apply.
type Job struct {
	System core.System
	Method core.Method
}

// Result is the outcome of one Job. Index links it back to its position in
// the submitted batch — results are always returned in submission order.
type Result struct {
	Index int
	Job   Job
	Perf  *core.Performance
	Err   error
}

func jobKey(j Job) string {
	return j.System.Fingerprint() + "|" + j.Method.String()
}

// Evaluate solves one configuration through the cache. Identical
// configurations evaluated concurrently share a single solver run; waiting
// callers respect context cancellation. A spectral cache miss solves
// through its environment's hoisted solver, shared by every configuration
// that differs in at most λ. With caching on, the returned Performance is
// the memoised steady-state block (Performance.SteadyState) shared by
// every caller of the configuration: its queue-distribution accessors are
// unavailable, so use core's solvers directly for queue distributions.
// With caching off, callers receive the full solve. When ctx carries a
// live trace the solve is recorded as a mus.engine.solve child span
// (cache hits included — a hit's microsecond span is what makes the cache
// visible in a trace).
func (e *Engine) Evaluate(ctx context.Context, sys core.System, m core.Method) (*core.Performance, error) {
	sp := trace.StartLeaf(ctx, "mus.engine.solve")
	sp.Set(trace.Int("servers", int64(sys.Servers)))
	sp.Set(trace.Float("lambda", sys.ArrivalRate))
	perf, err := e.evaluate(ctx, sys, m)
	sp.Fail(err)
	sp.End()
	return perf, err
}

// evaluate is Evaluate without the span — the one miss path that
// Evaluate, EvaluateBatch and EvaluateStream share, so sweep points stay
// span-less under their batch's single mus.engine.sweep span.
func (e *Engine) evaluate(ctx context.Context, sys core.System, m core.Method) (*core.Performance, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	e.evals.Add(1)
	key := jobKey(Job{System: sys, Method: m})
	return memoized(ctx, e, e.cache, e.inflight, key, func() (*core.Performance, error) {
		// This caller leads the solve; take an engine-wide worker slot so
		// the configured bound holds across every concurrent entry point.
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err() // cancelled waiting for a slot; not a solver error
		}
		e.solves.Add(1)
		perf, err := e.solve(sys, m, e.cache != nil)
		<-e.sem
		if err != nil {
			e.errs.Add(1)
			return nil, err
		}
		if e.cache != nil && perf.Solution() != nil {
			// The memo keeps the steady-state block alone, and the leader
			// and every joiner get the pointer it keeps. A spectral miss
			// solved for that block alone already is one.
			perf = perf.SteadyState()
		}
		return perf, nil
	})
}

// EvaluateBatch evaluates all jobs on the worker pool and returns one
// Result per job, in submission order regardless of completion order.
// Errors are captured per job, never aborting the batch; cancelling the
// context stops dispatching and marks every unfinished job with ctx.Err().
func (e *Engine) EvaluateBatch(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	for i, j := range jobs {
		results[i] = Result{Index: i, Job: j, Err: context.Canceled}
	}
	if len(jobs) == 0 {
		return results
	}
	// One batch-level span, never one per point: a 10k-point sweep must
	// not flood the trace buffer (or pay per-point span overhead in the
	// hot loop).
	sp := trace.StartLeaf(ctx, "mus.engine.sweep")
	sp.Set(trace.Int("points", int64(len(jobs))))
	defer sp.End()
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				perf, err := e.evaluate(ctx, jobs[i].System, jobs[i].Method)
				results[i] = Result{Index: i, Job: jobs[i], Perf: perf, Err: err}
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case indices <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(indices)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Perf == nil && results[i].Err == context.Canceled {
				results[i].Err = err
			}
		}
	}
	return results
}

// EvaluateStream evaluates all jobs on the worker pool and calls emit
// exactly once per job, in submission order, as soon as that job's result
// (and every earlier one's) is available — the streaming counterpart of
// EvaluateBatch, built for incremental HTTP responses: the first grid
// point of a long sweep is delivered while later points are still being
// solved. emit is never called concurrently. Per-job failures are carried
// in Result.Err and do not stop the stream; the returned error is
// non-nil only when the context is cancelled or emit itself fails, and
// in both cases all remaining work is abandoned.
func (e *Engine) EvaluateStream(ctx context.Context, jobs []Job, emit func(Result) error) error {
	if len(jobs) == 0 {
		return nil
	}
	// Batch-level span, as in EvaluateBatch: one per stream, not per point.
	sp := trace.StartLeaf(ctx, "mus.engine.sweep")
	sp.Set(trace.Int("points", int64(len(jobs))))
	defer sp.End()
	ctx, cancel := context.WithCancel(ctx)
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				perf, err := e.evaluate(ctx, jobs[i].System, jobs[i].Method)
				results[i] = Result{Index: i, Job: jobs[i], Perf: perf, Err: err}
				close(done[i])
			}
		}()
	}
	go func() {
		defer close(indices)
		for i := range jobs {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i := range jobs {
		select {
		case <-done[i]:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := emit(results[i]); err != nil {
			return err
		}
	}
	return nil
}

// FirstError returns the first per-job error in a batch, or nil.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("service: job %d (N=%d, λ=%g, %v): %w",
				r.Index, r.Job.System.Servers, r.Job.System.ArrivalRate, r.Job.Method, r.Err)
		}
	}
	return nil
}

// SweepSystems evaluates one method across a slice of systems and returns
// the performances in input order, failing on the first per-job error.
func (e *Engine) SweepSystems(ctx context.Context, systems []core.System, m core.Method) ([]*core.Performance, error) {
	jobs := make([]Job, len(systems))
	for i, s := range systems {
		jobs[i] = Job{System: s, Method: m}
	}
	results := e.EvaluateBatch(ctx, jobs)
	if err := FirstError(results); err != nil {
		return nil, err
	}
	perfs := make([]*core.Performance, len(results))
	for i, r := range results {
		perfs[i] = r.Perf
	}
	return perfs, nil
}

// SweepLambda evaluates the base system at every arrival rate, in order.
func (e *Engine) SweepLambda(ctx context.Context, base core.System, lambdas []float64, m core.Method) ([]*core.Performance, error) {
	systems := make([]core.System, len(lambdas))
	for i, l := range lambdas {
		systems[i] = base
		systems[i].ArrivalRate = l
	}
	return e.SweepSystems(ctx, systems, m)
}

// SweepServers returns the performance and cost of every stable N in
// [minN, maxN], ascending, solved on the engine's pool and cache, so
// repeated and overlapping sweeps reuse solves. The stable N are those
// from core.MinServersForStability up, as in core.Provision.
func (e *Engine) SweepServers(ctx context.Context, base core.System, cm core.CostModel, minN, maxN int, m core.Method) ([]core.ServerSweepPoint, error) {
	if minN < 1 || maxN < minN {
		return nil, fmt.Errorf("service: invalid server range [%d, %d]", minN, maxN)
	}
	lo, err := core.MinServersForStability(base)
	if err != nil || lo > maxN {
		return nil, errors.New("service: no stable configuration in the requested range")
	}
	var jobs []Job
	for n := max(minN, lo); n <= maxN; n++ {
		sys := base
		sys.Servers = n
		jobs = append(jobs, Job{System: sys, Method: m})
	}
	results := e.EvaluateBatch(ctx, jobs)
	if err := FirstError(results); err != nil {
		return nil, err
	}
	out := make([]core.ServerSweepPoint, len(results))
	for i, r := range results {
		n := r.Job.System.Servers
		out[i] = core.ServerSweepPoint{Servers: n, Perf: r.Perf, Cost: cm.Cost(r.Perf.MeanJobs, n)}
	}
	return out, nil
}

// Provision answers a provisioning question — the cost-optimal N, or the
// smallest N meeting a response-time target — over [minN, maxN] with
// core.Provision, solving each wave of up to Workers configurations
// concurrently through the pool and cache. The search's bound keeps the
// large-N solves that cannot win out of the waves; Stats().Solves shows
// what it ran.
func (e *Engine) Provision(ctx context.Context, base core.System, obj core.Objective, minN, maxN int, m core.Method) (core.ServerSweepPoint, error) {
	return core.Provision(base, obj, minN, maxN, m, e.workers, func(systems []core.System, m core.Method) ([]*core.Performance, []error) {
		jobs := make([]Job, len(systems))
		for i, sys := range systems {
			jobs[i] = Job{System: sys, Method: m}
		}
		perfs, errs := make([]*core.Performance, len(jobs)), make([]error, len(jobs))
		for i, r := range e.EvaluateBatch(ctx, jobs) {
			perfs[i], errs[i] = r.Perf, r.Err
		}
		return perfs, errs
	})
}

// Stats is a point-in-time snapshot of engine activity.
type Stats struct {
	// Workers is the solver concurrency bound.
	Workers int
	// Evaluations counts evaluations answered by any means — cache hit,
	// in-flight join, or fresh solve. Evaluations/Solves is the local
	// cache-affinity multiplier the cluster's fingerprint routing exists
	// to raise: the higher it is, the more of the node's shard is served
	// from memory.
	Evaluations uint64
	// Solves counts solver invocations that actually ran (cache misses).
	Solves uint64
	// Errors counts solver invocations that failed.
	Errors uint64
	// SharedInFlight counts evaluations answered by joining a concurrent
	// identical solve or simulation instead of running their own.
	SharedInFlight uint64
	// SimRuns counts replicated simulations that actually ran (simulation
	// cache misses and uncacheable runs).
	SimRuns uint64
	// SimErrors counts replicated simulations that failed.
	SimErrors uint64
	// BatchGroups counts hoisted spectral solvers constructed: one per
	// environment the engine's hoist cache builds (again after evicting
	// it), however many solves then reuse its λ-invariant work.
	BatchGroups uint64
	// BatchFallbacks counts spectral solves run without their
	// environment's hoisted solver because it failed to build.
	BatchFallbacks uint64
	// WarmedEntries counts cache entries restored from a boot snapshot.
	WarmedEntries uint64
	// Cache reports solver memoization effectiveness; zero-valued when
	// disabled.
	Cache CacheStats
	// SimCache reports simulation memoization effectiveness; zero-valued
	// when disabled.
	SimCache CacheStats
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:        e.workers,
		Evaluations:    e.evals.Load(),
		Solves:         e.solves.Load(),
		Errors:         e.errs.Load(),
		SharedInFlight: e.shared.Load(),
		SimRuns:        e.simRuns.Load(),
		SimErrors:      e.simErrs.Load(),
		BatchGroups:    e.batchGroups.Load(),
		BatchFallbacks: e.batchFallbacks.Load(),
		WarmedEntries:  e.warmed.Load(),
	}
	if e.cache != nil {
		s.Cache = e.cache.stats()
	}
	if e.simCache != nil {
		s.SimCache = e.simCache.stats()
	}
	return s
}
