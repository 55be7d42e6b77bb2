package core

import (
	"errors"
	"fmt"
	"math"
)

// CostModel is the paper's linear trade-off (eq. 22): holding a job costs
// c₁ per unit time, providing a server costs c₂ per unit time, so the
// steady-state total cost of an N-server cluster is C = c₁L + c₂N.
type CostModel struct {
	// HoldingCost is c₁.
	HoldingCost float64
	// ServerCost is c₂.
	ServerCost float64
}

// Cost evaluates C = c₁L + c₂N.
func (c CostModel) Cost(meanJobs float64, servers int) float64 {
	return c.HoldingCost*meanJobs + c.ServerCost*float64(servers)
}

// Method selects the solver used by the optimisation helpers.
type Method int

const (
	// Spectral is the exact spectral-expansion solution.
	Spectral Method = iota
	// Approximation is the one-eigenvalue geometric approximation.
	Approximation
	// MatrixGeometric is the exact R-matrix solution.
	MatrixGeometric
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Spectral:
		return "spectral"
	case Approximation:
		return "approximation"
	case MatrixGeometric:
		return "matrix-geometric"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SolveWith dispatches to the chosen solver.
func (s System) SolveWith(m Method) (*Performance, error) {
	switch m {
	case Spectral:
		return s.Solve()
	case Approximation:
		return s.SolveApprox()
	case MatrixGeometric:
		return s.SolveMatrixGeometric()
	default:
		return nil, fmt.Errorf("core: unknown method %v", m)
	}
}

// ServerSweepPoint is one entry of a sweep over the number of servers.
type ServerSweepPoint struct {
	Servers int
	Perf    *Performance
	Cost    float64
}

// Objective is one of the paper's two provisioning questions. With Target
// positive it asks for the smallest N whose mean response time W is at
// most Target (Figure 9); otherwise for the N minimising Cost (Figure 5).
type Objective struct {
	// Cost holds the weights c₁ and c₂ of the cost mode.
	Cost CostModel
	// Target, when positive, selects SLA mode: W ≤ Target.
	Target float64
}

// Evaluator solves a wave of systems with one method and returns each
// system's performance or error, in order.
type Evaluator func(systems []System, m Method) ([]*Performance, []error)

// solveEach is the serial Evaluator.
func solveEach(systems []System, m Method) ([]*Performance, []error) {
	perfs, errs := make([]*Performance, len(systems)), make([]error, len(systems))
	for i, sys := range systems {
		perfs[i], errs[i] = sys.SolveWith(m)
	}
	return perfs, errs
}

// Provision answers obj over N ∈ [minN, maxN]. It solves N from
// max(minN, MinServersForStability) up, the stable ones, in ascending
// waves of up to width systems through eval.
//
// Both modes rest on an exact bound. A busy server completes jobs at rate
// µ, so in steady state λ = µ·E[min(J, operative servers)] ≤ µL, that is
// L ≥ λ/µ and W ≥ 1/µ, for the exact methods (Spectral, MatrixGeometric).
// The §3.2 approximation's L can fall below λ/µ, so for it the bound is 0.
//   - Cost mode dispatches an N only while c₁·λ/µ + c₂·N is below the best
//     cost found so far; that bound grows with N, so the first N it rules
//     out ends the search. The smallest stable N is solved alone first, so
//     every later wave is capped by the bound. Among equal costs the
//     smallest N wins.
//   - SLA mode returns the first N with W ≤ Target. An exact-method target
//     ≤ 1/µ is unsatisfiable, and the search says so without a solve.
func Provision(base System, obj Objective, minN, maxN int, m Method, width int, eval Evaluator) (ServerSweepPoint, error) {
	cm := obj.Cost
	if minN < 1 || maxN < minN {
		return ServerSweepPoint{}, fmt.Errorf("core: invalid server range [%d, %d]", minN, maxN)
	}
	if !(obj.Target >= 0 && cm.HoldingCost >= 0 && cm.ServerCost >= 0) || obj.Target == 0 && cm.HoldingCost == 0 && cm.ServerCost == 0 {
		return ServerSweepPoint{}, fmt.Errorf("core: provisioning needs a positive response-time target, or cost weights that are non-negative and not both 0 (target %v, c₁ = %v, c₂ = %v)",
			obj.Target, cm.HoldingCost, cm.ServerCost)
	}
	probe := base
	probe.Servers = minN
	if err := probe.Validate(); err != nil {
		return ServerSweepPoint{}, err
	}
	lmin := 0.0
	if m == Spectral || m == MatrixGeometric {
		lmin = base.ArrivalRate / base.ServiceRate
	}
	sla := obj.Target > 0
	if sla && lmin > 0 && obj.Target <= 1/base.ServiceRate {
		return ServerSweepPoint{}, fmt.Errorf("core: no N achieves W ≤ %v: W ≥ 1/µ = %v at every N", obj.Target, 1/base.ServiceRate)
	}
	lo, err := MinServersForStability(base)
	if err != nil || lo > maxN {
		return ServerSweepPoint{}, errors.New("core: no stable configuration in the requested range")
	}
	var best ServerSweepPoint
	found := false
	for n := max(minN, lo); n <= maxN; {
		size := max(width, 1)
		if !sla && !found {
			size = 1
		}
		var wave []System
		for ; n <= maxN && len(wave) < size; n++ {
			if found && cm.Cost(lmin, n) >= best.Cost {
				n = maxN + 1 // the bound never falls with N: no larger N can win
				break
			}
			sys := base
			sys.Servers = n
			wave = append(wave, sys)
		}
		if len(wave) == 0 {
			break
		}
		perfs, errs := eval(wave, m)
		for i, sys := range wave {
			if errs[i] != nil {
				return ServerSweepPoint{}, fmt.Errorf("core: N = %d: %w", sys.Servers, errs[i])
			}
			pt := ServerSweepPoint{Servers: sys.Servers, Perf: perfs[i], Cost: cm.Cost(perfs[i].MeanJobs, sys.Servers)}
			if sla && pt.Perf.MeanResponse <= obj.Target {
				return pt, nil
			}
			if !sla && (!found || pt.Cost < best.Cost) {
				best, found = pt, true
			}
		}
	}
	if sla {
		return ServerSweepPoint{}, fmt.Errorf("core: no N in [%d, %d] achieves W ≤ %v", minN, maxN, obj.Target)
	}
	return best, nil
}

// OptimizeServers returns the N in [minN, maxN] minimising C = c₁L + c₂N —
// the paper's third introduction question, answered in Figure 5 — by a
// serial Provision.
func OptimizeServers(base System, cm CostModel, minN, maxN int, m Method) (ServerSweepPoint, error) {
	return Provision(base, Objective{Cost: cm}, minN, maxN, m, 1, solveEach)
}

// MinServersForResponseTime returns the smallest N ≤ maxN whose mean
// response time does not exceed target — the paper's second introduction
// question, answered in Figure 9 ("at least 9 servers should be deployed"
// for W ≤ 1.5 at λ = 7.5) — by a serial Provision.
func MinServersForResponseTime(base System, target float64, maxN int, m Method) (ServerSweepPoint, error) {
	return Provision(base, Objective{Target: target}, 1, maxN, m, 1, solveEach)
}

// MinServersForStability returns the smallest N that Stable accepts:
// the first at which λ falls below the capacity (eq. 11). The verdict
// only improves with N, since the capacity N·c rounds monotonically in N
// and λ over it falls, so the search starts at ⌈λ/c⌉, c being one
// server's capacity, and steps to the boundary. The rates must be usable:
// a non-positive arrival or service rate, a missing distribution, or a
// server that is never operative (repairs that never complete) admits no
// stabilising N at all and returns an error instead of ⌈NaN⌉ garbage.
func MinServersForStability(base System) (int, error) {
	sys := base
	sys.Servers = 1
	if err := sys.Validate(); err != nil {
		return 0, err
	}
	c := sys.Capacity()
	need := base.ArrivalRate / c
	if !(need < math.MaxInt32) {
		return 0, fmt.Errorf("core: no N below 2³¹ carries λ = %v at one server's capacity %v (zero repair rate?)", base.ArrivalRate, c)
	}
	stable := func(n int) bool {
		sys.Servers = n
		return sys.Stable()
	}
	n := max(int(math.Ceil(need)), 1)
	for n > 1 && stable(n-1) {
		n--
	}
	for !stable(n) {
		n++
	}
	return n, nil
}
