package api

import (
	"math"

	"repro/internal/core"
)

// SolveRequest asks for one steady-state evaluation (POST /v1/solve).
type SolveRequest struct {
	System
	// Method selects the solver: spectral (default), approx or mg.
	Method string `json:"method,omitempty"`
	// HoldingCost is c₁; with ServerCost it requests C = c₁L + c₂N in
	// the response.
	HoldingCost float64 `json:"holding_cost,omitempty"`
	// ServerCost is c₂, the per-server provisioning cost.
	ServerCost float64 `json:"server_cost,omitempty"`
}

// Resolve validates the request and converts it to model types in one
// pass — the form server handlers consume. Failures are *Error values.
func (r SolveRequest) Resolve() (core.System, core.Method, error) {
	sys, err := r.ToSystem()
	if err != nil {
		return core.System{}, 0, err
	}
	m, err := ParseMethod(r.Method)
	if err != nil {
		return core.System{}, 0, err
	}
	if r.HoldingCost < 0 || r.ServerCost < 0 {
		return core.System{}, 0, InvalidArgument("holding_cost", "costs must be ≥ 0")
	}
	return sys, m, nil
}

// Validate reports wire-level problems as *Error values.
func (r SolveRequest) Validate() error {
	_, _, err := r.Resolve()
	return err
}

// SolveResponse reports one steady-state evaluation.
type SolveResponse struct {
	// Fingerprint is the canonical configuration key (cache identity).
	Fingerprint string `json:"fingerprint"`
	// Method echoes the solver that produced Perf.
	Method string `json:"method"`
	// Availability is η/(ξ+η), the per-server operative fraction.
	Availability float64 `json:"availability"`
	// Modes is s, the size of the operational-mode environment (eq. 12).
	Modes int `json:"modes"`
	// Stable reports the ergodicity condition; always true in a 200.
	Stable bool `json:"stable"`
	// Perf is the steady-state metrics block.
	Perf Performance `json:"perf"`
	// Cost is C = c₁L + c₂N, present only when costs were supplied.
	Cost *float64 `json:"cost,omitempty"`
}

// Sweep parameter names accepted by the "param" request field.
const (
	// ParamLambda sweeps the arrival rate λ over the values grid.
	ParamLambda = "lambda"
	// ParamServers sweeps the fleet size N; every value must be integral.
	ParamServers = "servers"
)

// SweepRequest asks for a batch evaluation over a parameter grid
// (POST /v1/sweep). With "Accept: application/x-ndjson" the response is
// a stream of SweepPoint lines instead of one SweepResponse.
type SweepRequest struct {
	System
	// Method selects the solver: spectral (default), approx or mg.
	Method string `json:"method,omitempty"`
	// Param names the swept parameter: lambda or servers.
	Param string `json:"param"`
	// Values is the grid (1 to MaxSweepPoints points).
	Values []float64 `json:"values"`
}

// Validate reports wire-level problems as *Error values. Per-point
// failures (an unstable or invalid grid point) are not wire-level: they
// surface in the matching SweepPoint's Error field instead.
func (r SweepRequest) Validate() error {
	_, err := r.Systems()
	return err
}

// baseWire neutralises the swept field of the base system: its wire value
// is irrelevant (every grid point overwrites it), so an absent field must
// not fail validation.
func (r SweepRequest) baseWire() System {
	wire := r.System
	switch r.Param {
	case ParamServers:
		if wire.Servers == 0 {
			wire.Servers = 1
		}
	case ParamLambda:
		if wire.Lambda == 0 {
			wire.Lambda = 1
		}
	}
	return wire
}

// Systems validates the request and expands the grid into one
// core.System per value. Individual entries may be invalid or unstable
// (reported per point by the server); the error return only fires for
// wire-level problems — a bad param, an empty or oversized grid,
// fractional server counts, or an unconvertible base system.
func (r SweepRequest) Systems() ([]core.System, error) {
	if _, err := ParseMethod(r.Method); err != nil {
		return nil, err
	}
	if len(r.Values) == 0 {
		return nil, InvalidArgument("values", "sweep needs at least one value")
	}
	if len(r.Values) > MaxSweepPoints {
		return nil, InvalidArgument("values", "sweep of %d points exceeds the %d-point limit", len(r.Values), MaxSweepPoints)
	}
	switch r.Param {
	case ParamLambda:
	case ParamServers:
		for _, v := range r.Values {
			if v != math.Trunc(v) {
				return nil, InvalidArgument("values", "servers sweep value %v is not an integer", v)
			}
		}
	default:
		return nil, InvalidArgument("param", "unknown sweep param %q (want lambda or servers)", r.Param)
	}
	// The base system must convert; grid points may still fail per point
	// (e.g. servers=0), which the sweep reports point-wise.
	base, err := r.baseWire().ToSystem()
	if err != nil {
		return nil, err
	}
	out := make([]core.System, len(r.Values))
	for i, v := range r.Values {
		sys := base
		switch r.Param {
		case ParamLambda:
			sys.ArrivalRate = v
		case ParamServers:
			sys.Servers = int(v)
		}
		out[i] = sys
	}
	return out, nil
}

// SweepPoint is one grid point of a sweep: exactly one of Perf and Error
// is set. In an NDJSON stream each line is one SweepPoint, emitted in
// grid order as soon as the point is solved.
type SweepPoint struct {
	// Index is the point's position in the request's values grid.
	Index int `json:"index"`
	// Value is the swept parameter value at this point.
	Value float64 `json:"value"`
	// Perf is the steady-state metrics block (absent on failure).
	Perf *Performance `json:"perf,omitempty"`
	// Error describes a per-point failure (absent on success).
	Error string `json:"error,omitempty"`
}

// SweepResponse is the buffered (non-streaming) sweep reply; points are
// in grid order.
type SweepResponse struct {
	// Method echoes the solver used.
	Method string `json:"method"`
	// Param echoes the swept parameter.
	Param string `json:"param"`
	// Points holds one entry per requested value, in order.
	Points []SweepPoint `json:"points"`
}

// OptimizeRequest asks one of the paper's two provisioning questions
// (POST /v1/optimize): with TargetResponse set, the smallest N meeting
// the SLA (Figure 9); otherwise the N in [MinServers, MaxServers]
// minimising C = c₁L + c₂N (Figure 5).
type OptimizeRequest struct {
	System
	// Method selects the solver: spectral (default), approx or mg.
	Method string `json:"method,omitempty"`
	// HoldingCost is c₁ of the cost objective.
	HoldingCost float64 `json:"holding_cost,omitempty"`
	// ServerCost is c₂ of the cost objective.
	ServerCost float64 `json:"server_cost,omitempty"`
	// MinServers is the bottom of the searched fleet-size range
	// (default 1).
	MinServers int `json:"min_servers,omitempty"`
	// MaxServers is the top of the searched range (default 64).
	MaxServers int `json:"max_servers,omitempty"`
	// TargetResponse switches to SLA mode: find the smallest N with
	// W ≤ TargetResponse.
	TargetResponse float64 `json:"target_response,omitempty"`
}

// Bounds returns the effective search range by the rule every
// provisioning request shares (bounds).
func (r OptimizeRequest) Bounds() (minN, maxN int) { return bounds(r.MinServers, r.MaxServers) }

// Objective returns the provisioning question the request asks.
func (r OptimizeRequest) Objective() core.Objective {
	return core.Objective{Cost: core.CostModel{HoldingCost: r.HoldingCost, ServerCost: r.ServerCost}, Target: r.TargetResponse}
}

// Resolve validates the request and converts it to model types in one
// pass: the base system (the wire Servers field is ignored — N is the
// decision variable), the solver, and the effective search range.
// Failures are *Error values.
func (r OptimizeRequest) Resolve() (base core.System, m core.Method, minN, maxN int, err error) {
	m, err = ParseMethod(r.Method)
	if err != nil {
		return core.System{}, 0, 0, 0, err
	}
	base, err = r.BaseSystem()
	if err != nil {
		return core.System{}, 0, 0, 0, err
	}
	minN, maxN = r.Bounds()
	if err = checkObjective(r.Objective(), minN, maxN); err != nil {
		return core.System{}, 0, 0, 0, err
	}
	return base, m, minN, maxN, nil
}

// bounds defaults absent provisioning bounds to [1, 64], in either mode:
// the search stops at the first N that cannot win (the exact bound
// L ≥ λ/µ in cost mode, the first satisfying N in SLA mode), so a wide
// default costs only the solves the answer needs.
func bounds(minN, maxN int) (int, int) {
	if minN == 0 {
		minN = 1
	}
	if maxN == 0 {
		maxN = 64
	}
	return minN, maxN
}

// checkObjective validates what both provisioning requests share: a
// positive target or non-negative cost weights, not both 0, and a
// non-empty range.
func checkObjective(obj core.Objective, minN, maxN int) error {
	switch {
	case obj.Target < 0:
		return InvalidArgument("target_response", "target response %v must be positive", obj.Target)
	case obj.Cost.HoldingCost < 0:
		return InvalidArgument("holding_cost", "holding cost %v must not be negative", obj.Cost.HoldingCost)
	case obj.Cost.ServerCost < 0:
		return InvalidArgument("server_cost", "server cost %v must not be negative", obj.Cost.ServerCost)
	case obj.Target == 0 && obj.Cost.HoldingCost == 0 && obj.Cost.ServerCost == 0:
		return InvalidArgument("target_response", "the request needs holding_cost/server_cost or target_response")
	case minN < 1 || maxN < minN:
		return InvalidArgument("min_servers", "invalid server range [%d, %d]", minN, maxN)
	}
	return nil
}

// Validate reports wire-level problems as *Error values.
func (r OptimizeRequest) Validate() error {
	_, _, _, _, err := r.Resolve()
	return err
}

// BaseSystem converts the embedded system for an optimisation: the wire
// Servers field is ignored (N is the decision variable), so conversion
// succeeds even when it is absent.
func (r OptimizeRequest) BaseSystem() (core.System, error) {
	wire := r.System
	if wire.Servers == 0 {
		wire.Servers = 1
	}
	return wire.ToSystem()
}

// OptimizeResponse reports the winning fleet size.
type OptimizeResponse struct {
	// Objective restates the solved question in human-readable form.
	Objective string `json:"objective"`
	// Servers is the optimal (or smallest satisfying) N.
	Servers int `json:"servers"`
	// Cost is the objective value at Servers (cost mode only).
	Cost *float64 `json:"cost,omitempty"`
	// Perf is the steady-state metrics block at Servers.
	Perf Performance `json:"perf"`
}

// SimulateRequest asks for a replicated discrete-event simulation with
// confidence intervals (POST /v1/simulate).
type SimulateRequest struct {
	System
	// Seed is the base RNG seed; replication i derives its own stream
	// from it, so results are reproducible for a fixed request.
	Seed int64 `json:"seed,omitempty"`
	// Warmup is the discarded initial period per replication.
	Warmup float64 `json:"warmup,omitempty"`
	// Horizon is the measured period per replication.
	Horizon float64 `json:"horizon,omitempty"`
	// Replications is R_max (default DefaultReplications).
	Replications int `json:"replications,omitempty"`
	// MinReplications is the count run before the stopping rule applies.
	MinReplications int `json:"min_replications,omitempty"`
	// RelPrecision is ε: stop once the CI half-width on L is within
	// ε·mean (0 = run exactly Replications).
	RelPrecision float64 `json:"rel_precision,omitempty"`
	// Confidence is the CI level in (0, 1) (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
}

// Resolve validates the request and converts it to model types in one
// pass — the system plus simulation options with the API defaults
// applied. Failures are *Error values.
func (r SimulateRequest) Resolve() (core.System, core.SimOptions, error) {
	sys, err := r.ToSystem()
	if err != nil {
		return core.System{}, core.SimOptions{}, err
	}
	switch {
	case r.Confidence != 0 && !(r.Confidence > 0 && r.Confidence < 1):
		return core.System{}, core.SimOptions{}, InvalidArgument("confidence", "confidence %v outside (0, 1)", r.Confidence)
	case r.RelPrecision < 0:
		return core.System{}, core.SimOptions{}, InvalidArgument("rel_precision", "rel_precision %v must be ≥ 0", r.RelPrecision)
	case r.Replications < 0 || r.MinReplications < 0:
		return core.System{}, core.SimOptions{}, InvalidArgument("replications", "replication counts must be ≥ 0")
	case r.Warmup < 0 || r.Horizon < 0:
		return core.System{}, core.SimOptions{}, InvalidArgument("warmup", "warmup and horizon must be ≥ 0")
	}
	return sys, r.Options(), nil
}

// Validate reports wire-level problems as *Error values.
func (r SimulateRequest) Validate() error {
	_, _, err := r.Resolve()
	return err
}

// Options converts the request to simulation options, applying the API's
// DefaultReplications when the request names none.
func (r SimulateRequest) Options() core.SimOptions {
	opts := core.SimOptions{
		Seed:            r.Seed,
		Warmup:          r.Warmup,
		Horizon:         r.Horizon,
		Replications:    r.Replications,
		MinReplications: r.MinReplications,
		RelPrecision:    r.RelPrecision,
		Confidence:      r.Confidence,
	}
	if opts.Replications == 0 {
		opts.Replications = DefaultReplications
	}
	return opts
}

// SimulateResponse reports replicated-simulation estimates; each CI is a
// Student-t interval at the returned confidence level.
type SimulateResponse struct {
	// Fingerprint is the canonical configuration key.
	Fingerprint string `json:"fingerprint"`
	// Replications is the number of replications actually run.
	Replications int `json:"replications"`
	// Converged reports whether the precision criterion was met (true
	// when none was requested).
	Converged bool `json:"converged"`
	// Confidence is the level of every interval in this response.
	Confidence float64 `json:"confidence"`
	// MeanQueue estimates L.
	MeanQueue CI `json:"mean_queue"`
	// MeanResponse estimates W.
	MeanResponse CI `json:"mean_response"`
	// Availability estimates the operative fraction.
	Availability CI `json:"availability"`
	// Completed counts jobs finished across all replications.
	Completed int64 `json:"completed"`
}

// CacheStats is the wire form of one engine cache's counters.
type CacheStats struct {
	// Hits counts lookups served from memory.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran the backing computation.
	Misses uint64 `json:"misses"`
	// Evictions counts LRU evictions.
	Evictions uint64 `json:"evictions"`
	// Entries is the current population.
	Entries int `json:"entries"`
	// Capacity is the configured bound (0 = disabled).
	Capacity int `json:"capacity"`
	// HitRate is Hits/(Hits+Misses), 0 when no lookups happened.
	HitRate float64 `json:"hit_rate"`
}

// StatsResponse reports engine, worker-pool and cache counters
// (GET /v1/stats).
type StatsResponse struct {
	// UptimeSeconds is the daemon's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts HTTP requests served.
	Requests uint64 `json:"requests"`
	// Workers is the solver concurrency bound.
	Workers int `json:"workers"`
	// Evaluations counts evaluations answered by any means (cache hit,
	// in-flight join, or fresh solve); with Solves it bounds the node's
	// cache-affinity multiplier Evaluations/Solves.
	Evaluations uint64 `json:"evaluations"`
	// Solves counts solver invocations that actually ran.
	Solves uint64 `json:"solves"`
	// SolverErrors counts solver invocations that failed.
	SolverErrors uint64 `json:"solver_errors"`
	// SharedInFlight counts evaluations that joined an in-flight twin.
	SharedInFlight uint64 `json:"shared_in_flight"`
	// SimRuns counts replicated simulations that actually ran.
	SimRuns uint64 `json:"sim_runs"`
	// SimErrors counts replicated simulations that failed.
	SimErrors uint64 `json:"sim_errors"`
	// BatchGroups counts hoisted spectral solvers constructed: every
	// spectral cache miss solves through its environment's shared solver,
	// built once per environment (again after the engine evicts it).
	BatchGroups uint64 `json:"batch_groups"`
	// BatchFallbacks counts spectral solves run without their
	// environment's hoisted solver because it failed to build.
	BatchFallbacks uint64 `json:"batch_fallbacks"`
	// WarmedEntries counts cache entries restored from a boot snapshot.
	WarmedEntries uint64 `json:"warmed_entries"`
	// Cache reports solver memoization effectiveness.
	Cache CacheStats `json:"cache"`
	// SimCache reports simulation memoization effectiveness.
	SimCache CacheStats `json:"sim_cache"`
	// Jobs reports the asynchronous job scheduler's queue depth and
	// state-machine population.
	Jobs JobStats `json:"jobs"`
	// Obs is the node's flattened metric snapshot — every registered
	// series as "name{labels}" → value, histograms contributing their
	// _count and _sum. The same registry renders the full exposition
	// (buckets included) at GET /metrics; this block is the JSON view for
	// dashboards and the cluster SDK's per-node gather.
	Obs map[string]float64 `json:"obs,omitempty"`
}

// HealthResponse answers the load-balancer probe (GET /v1/healthz): the
// daemon is ready — its engine exists, its worker pool is sized, and its
// caches are configured. Any 200 means "route traffic here".
type HealthResponse struct {
	// Status is "ok" whenever the daemon can serve at all.
	Status string `json:"status"`
	// Workers is the engine's solver concurrency bound.
	Workers int `json:"workers"`
	// CacheCapacity is the solver cache bound (0 = disabled).
	CacheCapacity int `json:"cache_capacity"`
	// SimCacheCapacity is the simulation cache bound (0 = disabled).
	SimCacheCapacity int `json:"sim_cache_capacity"`
	// UptimeSeconds is the daemon's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
}
