package api

import (
	"repro/internal/core"
)

// PathPlan is the capacity-planning endpoint (POST): the same two
// provisioning questions as PathOptimize, but asked about the serving
// tier itself. In request mode the caller supplies the rates; in
// measured mode the server fills them from its own fitted self-model —
// cluster-aggregated across live nodes when clustering is enabled — so
// "how many servers should this deployment run?" needs no parameters at
// all.
const PathPlan = "/v1/plan"

// RetryAfterQueueFull is the static Retry-After value (seconds) stamped
// on queue_full 429 rejections when no admission self-model exists yet
// (first window after boot, or -admission off). It guarantees the SDK's
// retry loop always receives a hint — a hintless 429 fails fast and
// strands the caller — while the model-derived drain estimate replaces
// it the moment one is available.
const RetryAfterQueueFull = 1

// Plan sources reported by PlanResponse.Source.
const (
	// PlanSourceRequest means the rates came from the request body.
	PlanSourceRequest = "request"
	// PlanSourceMeasured means the rates came from the serving tier's own
	// fitted self-model (aggregated across the cluster when enabled).
	PlanSourceMeasured = "measured"
)

// PlanRates is the wire form of the rate quadruple a plan was computed
// from — the measured counterpart of the paper's (λ, µ, ξ, η).
type PlanRates struct {
	// Lambda is the arrival rate λ, submissions per second (cluster-wide
	// total in measured cluster mode).
	Lambda float64 `json:"lambda"`
	// Mu is the per-server service rate µ, completions per second.
	Mu float64 `json:"mu"`
	// Xi is the per-server breakdown rate ξ, events per second.
	Xi float64 `json:"xi"`
	// Eta is the per-server repair rate η, events per second.
	Eta float64 `json:"eta"`
}

// PlanRequest asks a provisioning question about the serving tier
// (POST /v1/plan): with TargetResponse set, the smallest N meeting the
// SLA; otherwise the N in [MinServers, MaxServers] minimising
// C = c₁L + c₂N. With Measured set the embedded system's rates are
// ignored and the server's own fitted self-model supplies them; the
// request then only carries the objective.
type PlanRequest struct {
	System
	// Measured switches the rate source from the request body to the
	// serving tier's fitted self-model. Requires -admission on the server.
	Measured bool `json:"measured,omitempty"`
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
func (r PlanRequest) Bounds() (minN, maxN int) { return bounds(r.MinServers, r.MaxServers) }

// Objective returns the provisioning question the request asks.
func (r PlanRequest) Objective() core.Objective {
	return core.Objective{Cost: core.CostModel{HoldingCost: r.HoldingCost, ServerCost: r.ServerCost}, Target: r.TargetResponse}
}

// ResolveObjective validates the mode-independent fields — solver,
// objective, range — and returns the model types. The base system is
// resolved separately (BaseSystem in request mode; the server's measured
// rates otherwise). Failures are *Error values.
func (r PlanRequest) ResolveObjective() (m core.Method, minN, maxN int, err error) {
	m, err = ParseMethod(r.Method)
	if err != nil {
		return 0, 0, 0, err
	}
	minN, maxN = r.Bounds()
	if err = checkObjective(r.Objective(), minN, maxN); err != nil {
		return 0, 0, 0, err
	}
	return m, minN, maxN, nil
}

// BaseSystem converts the embedded system for a request-mode plan: the
// wire Servers field is ignored (N is the decision variable).
func (r PlanRequest) BaseSystem() (core.System, error) {
	wire := r.System
	if wire.Servers == 0 {
		wire.Servers = 1
	}
	return wire.ToSystem()
}

// Validate reports wire-level problems as *Error values. In measured
// mode the embedded system is not consulted — the server supplies it.
func (r PlanRequest) Validate() error {
	_, _, _, err := r.ResolveObjective()
	if err != nil {
		return err
	}
	if !r.Measured {
		_, err = r.BaseSystem()
	}
	return err
}

// PlanResponse reports the recommended fleet size and the model it was
// derived from.
type PlanResponse struct {
	// Objective restates the solved question in human-readable form.
	Objective string `json:"objective"`
	// Source reports where the rates came from: PlanSourceRequest or
	// PlanSourceMeasured.
	Source string `json:"source"`
	// Nodes counts the cluster nodes whose measured rates were aggregated
	// (1 standalone; 0 in request mode).
	Nodes int `json:"nodes,omitempty"`
	// Rates is the rate quadruple the plan was computed from.
	Rates PlanRates `json:"rates"`
	// Servers is the recommended (optimal or smallest satisfying) N.
	Servers int `json:"servers"`
	// Cost is the objective value at Servers (cost mode only).
	Cost *float64 `json:"cost,omitempty"`
	// Perf is the predicted steady-state metrics block at Servers.
	Perf Performance `json:"perf"`
	// Availability is η/(ξ+η) of the planned system.
	Availability float64 `json:"availability"`
	// MinStable is the smallest N satisfying the ergodicity condition
	// (eq. 11) by the one rule the solvers apply, λ below qbd's capacity
	// (core.MinServersForStability) — the floor under any recommendation.
	MinStable int `json:"min_stable"`
}
