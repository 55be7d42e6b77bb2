package service

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
)

// simKey builds the canonical memoisation key for a simulation request:
// the system fingerprint plus every result-affecting option of the
// normalized form — seed, warmup/horizon, replication cap and minimum,
// relative precision and confidence level. Floats are encoded in exact
// hexadecimal form, mirroring core.System.Fingerprint. The second return
// is false when the request is not cacheable: option-level distribution
// overrides have no canonical encoding, so those runs always execute.
func simKey(sys core.System, o core.SimOptions) (string, bool) {
	if o.Operative != nil || o.Repair != nil {
		return "", false
	}
	o = o.Normalized()
	hex := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	return "sim|" + sys.Fingerprint() +
		"|s=" + strconv.FormatInt(o.Seed, 10) +
		"|w=" + hex(o.Warmup) +
		"|h=" + hex(o.Horizon) +
		"|r=" + strconv.Itoa(o.Replications) +
		"|m=" + strconv.Itoa(o.MinReplications) +
		"|e=" + hex(o.RelPrecision) +
		"|c=" + hex(o.Confidence), true
}

// Simulate estimates a system's steady state by replicated discrete-event
// simulation through the engine's simulation cache: results are memoised
// under (fingerprint, seed, precision), concurrent identical requests join
// one in-flight run, and distinct requests are serialised by the engine's
// worker gate. The run itself is bit-for-bit deterministic for a fixed
// (system, options), so a cached result is indistinguishable from a fresh
// one.
//
// Replicated runs share the engine's worker gate at replication
// granularity: every individual replication — across any number of
// concurrent Simulate calls, plus all solver work — holds one engine
// slot while it runs, so the configured Workers bound holds globally and
// concurrent simulations interleave instead of oversubscribing the pool.
func (e *Engine) Simulate(ctx context.Context, sys core.System, opts core.SimOptions) (core.SimResult, error) {
	if err := ctx.Err(); err != nil {
		return core.SimResult{}, err
	}
	if err := sys.Validate(); err != nil {
		return core.SimResult{}, err
	}
	if opts.Workers <= 0 {
		opts.Workers = e.workers
	}
	key, cacheable := simKey(sys, opts)
	if !cacheable {
		return e.runSim(ctx, sys, opts)
	}
	return memoized(ctx, e, e.simCache, e.simInflight, key, func() (core.SimResult, error) {
		return e.runSim(ctx, sys, opts)
	})
}

// runSim executes one simulation under the engine's worker gate: a
// single-replication run holds one slot for its duration, a replicated
// run acquires a slot per replication through RepConfig.Gate so the
// engine-wide bound holds at replication granularity.
func (e *Engine) runSim(ctx context.Context, sys core.System, opts core.SimOptions) (core.SimResult, error) {
	if opts.Normalized().Replications <= 1 {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return core.SimResult{}, ctx.Err()
		}
		defer func() { <-e.sem }()
	} else {
		opts.Gate = e.sem
	}
	e.simRuns.Add(1)
	res, err := sys.SimulateContext(ctx, opts)
	if err != nil && ctx.Err() == nil {
		// Cancellation is the caller's doing, not a simulation failure.
		e.simErrs.Add(1)
	}
	return res, err
}

// SimulateBatch simulates every system with the same options, returning
// one result per system in submission order. Errors are captured per
// entry, never aborting the batch. The batch dispatches serially — each
// replicated run already saturates the worker pool internally, so batching
// adds cache and dedup reuse, not extra concurrency.
func (e *Engine) SimulateBatch(ctx context.Context, systems []core.System, opts core.SimOptions) []SimBatchResult {
	out := make([]SimBatchResult, len(systems))
	for i, sys := range systems {
		if err := ctx.Err(); err != nil {
			out[i] = SimBatchResult{Index: i, System: sys, Err: err}
			continue
		}
		res, err := e.Simulate(ctx, sys, opts)
		out[i] = SimBatchResult{Index: i, System: sys, Res: res, Err: err}
	}
	return out
}

// SimBatchResult is the outcome of one SimulateBatch entry.
type SimBatchResult struct {
	// Index links the result back to its position in the submitted batch.
	Index int
	// System is the simulated configuration.
	System core.System
	// Res is the replicated-simulation estimate (zero-valued on error).
	Res core.SimResult
	// Err is the per-entry failure, if any.
	Err error
}

// FirstSimError returns the first per-entry error in a batch, or nil.
func FirstSimError(results []SimBatchResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("service: sim %d (N=%d, λ=%g): %w",
				r.Index, r.System.Servers, r.System.ArrivalRate, r.Err)
		}
	}
	return nil
}
