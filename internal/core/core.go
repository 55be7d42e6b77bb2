// Package core is the public face of the reproduction: the multi-server
// system with unreliable servers of Palmer & Mitrani (DSN 2006). A System
// describes N parallel servers fed from one unbounded FIFO queue by a
// Poisson stream, each server alternating between hyperexponential
// operative periods and hyperexponential repair periods; jobs interrupted
// by a breakdown resume later without loss of work.
//
// The package answers the three questions posed in the paper's
// introduction:
//
//  1. How does the system perform? — Solve / SolveApprox /
//     SolveMatrixGeometric / Simulate return the mean queue length, mean
//     response time and full queue-length distribution.
//  2. What is the minimum number of servers ensuring a target level of
//     performance? — MinServersForResponseTime.
//  3. What number of servers minimises the holding-plus-provisioning cost
//     C = c₁L + c₂N? — OptimizeServers.
//
// Questions 2 and 3 run one search, Provision, pruned by the exact bound
// L ≥ λ/µ.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/markov"
	"repro/internal/qbd"
	"repro/internal/sim"
)

// System describes a service-provisioning cluster (paper §3).
type System struct {
	// Servers is N, the number of parallel servers.
	Servers int
	// ArrivalRate is λ, the Poisson arrival rate.
	ArrivalRate float64
	// ServiceRate is µ, the exponential service rate of one operative server.
	ServiceRate float64
	// Operative is the distribution of operative periods (n-phase
	// hyperexponential; use dist.Exp for the classical exponential model).
	Operative *dist.HyperExp
	// Repair is the distribution of inoperative periods.
	Repair *dist.HyperExp
}

// Validate checks the system description.
func (s System) Validate() error {
	if s.Servers < 1 {
		return fmt.Errorf("core: %d servers, need at least 1", s.Servers)
	}
	if !(s.ArrivalRate > 0) || math.IsInf(s.ArrivalRate, 0) {
		return fmt.Errorf("core: arrival rate %v must be positive and finite", s.ArrivalRate)
	}
	if !(s.ServiceRate > 0) || math.IsInf(s.ServiceRate, 0) {
		return fmt.Errorf("core: service rate %v must be positive and finite", s.ServiceRate)
	}
	if s.Operative == nil || s.Repair == nil {
		return errors.New("core: operative and repair distributions are required")
	}
	return nil
}

// Params assembles the queueing parameters for the qbd solvers: one
// server's description (qbd.Params.Servers), from which qbd derives the
// modes, the transitions and the capacity, and the service diagonals C_j
// over qbd's modes. A phase of zero weight is never entered; the
// description carries it all the same, and qbd's factored stage solves
// it as a transient phase.
func (s System) Params() (qbd.Params, error) {
	p, _, err := s.params()
	return p, err
}

// params is Params, returning each mode's number of operative servers
// as well.
func (s System) params() (qbd.Params, []int, error) {
	if err := s.Validate(); err != nil {
		return qbd.Params{}, nil, err
	}
	d := s.servers()
	if err := d.Validate(); err != nil {
		return qbd.Params{}, nil, err
	}
	xs := markov.Operative(d.Modes(), s.Operative.Phases())
	return qbd.Params{
		Lambda:      s.ArrivalRate,
		ServiceDiag: markov.ServiceDiag(xs, s.Servers, s.ServiceRate),
		Servers:     d,
	}, xs, nil
}

// servers describes the N servers by one server, as qbd takes them.
func (s System) servers() *qbd.Servers {
	return &qbd.Servers{
		G:     markov.ServerRates(s.Operative, s.Repair),
		Rates: markov.PhaseServiceRates(s.Operative, s.Repair, s.ServiceRate),
		N:     s.Servers,
	}
}

// Modes returns s, the number of operational modes (paper eq. 12).
func (s System) Modes() int {
	return qbd.NumModes(s.Servers, s.Operative.Phases()+s.Repair.Phases())
}

// Availability returns η/(ξ+η), the long-run fraction of time one server is
// operative; it depends only on the mean period lengths (paper §3). It is
// for display and for λ grids defined by it; Capacity decides stability.
func (s System) Availability() float64 {
	xi := s.Operative.Rate()
	eta := s.Repair.Rate()
	return eta / (xi + eta)
}

// Capacity returns qbd's service capacity of the N servers,
// N·Σ_p π_p·r_p, π being one server's stationary distribution over its
// phases and r_p its service rate in phase p: eq. 11's N·µ·η/(ξ+η), as
// every solver computes it. It is 0 for a system qbd cannot describe.
func (s System) Capacity() float64 {
	c, err := s.servers().Capacity()
	if err != nil {
		return 0
	}
	return c
}

// Load returns the offered load relative to capacity, λ/Capacity; the
// system is stable iff Load < 1 (paper eq. 11), the rule every solver
// applies.
func (s System) Load() float64 { return s.ArrivalRate / s.Capacity() }

// Stable reports whether the ergodicity condition (eq. 11) holds.
func (s System) Stable() bool { return s.Load() < 1 }

// Performance packages the steady-state metrics from a solution.
type Performance struct {
	// MeanJobs is L, the mean number of jobs present.
	MeanJobs float64
	// MeanResponse is W = L/λ (Little's law).
	MeanResponse float64
	// TailDecay is the geometric decay rate z_s of the queue-length tail.
	TailDecay float64
	// Load echoes the offered load.
	Load float64

	sol      qbd.Solution
	opCounts []int // operative servers per mode
}

// OperativeStat describes the system conditioned on the number of operative
// servers.
type OperativeStat struct {
	// Operative is x, the number of working servers.
	Operative int
	// Prob is P(x servers operative).
	Prob float64
	// MeanQueue is E[jobs present | x servers operative]; NaN when Prob is
	// numerically zero.
	MeanQueue float64
}

// OperativeBreakdown decomposes the steady state by the number of operative
// servers — the mode structure of the solution makes "how much queue builds
// while k servers are down" directly available, which no scalar-load model
// can provide. Entries are indexed by x = 0..N.
func (p *Performance) OperativeBreakdown() []OperativeStat {
	n := 0
	for _, x := range p.opCounts {
		if x > n {
			n = x
		}
	}
	prob := make([]float64, n+1)
	mass := make([]float64, n+1) // Σ_j j·P(j jobs, x operative)
	// Sum levels until the geometric tail is exhausted.
	z := p.TailDecay
	maxJ := 200
	if z > 0 && z < 1 {
		maxJ = int(math.Log(1e-13)/math.Log(z)) + 4*n + 16
	}
	for j := 0; j <= maxJ; j++ {
		lv := p.sol.Level(j)
		for i, x := range p.opCounts {
			prob[x] += lv[i]
			mass[x] += float64(j) * lv[i]
		}
	}
	out := make([]OperativeStat, n+1)
	for x := 0; x <= n; x++ {
		st := OperativeStat{Operative: x, Prob: prob[x], MeanQueue: math.NaN()}
		if prob[x] > 1e-300 {
			st.MeanQueue = mass[x] / prob[x]
		}
		out[x] = st
	}
	return out
}

// QueueProb returns P(exactly j jobs present).
func (p *Performance) QueueProb(j int) float64 { return p.sol.LevelProb(j) }

// QueueTail returns P(at least j jobs present).
func (p *Performance) QueueTail(j int) float64 {
	if j <= 0 {
		return 1
	}
	t := p.sol.TotalProbability()
	for k := 0; k < j; k++ {
		t -= p.sol.LevelProb(k)
	}
	return t
}

// ModeMarginals exposes the marginal mode distribution Σ_j v_j.
func (p *Performance) ModeMarginals() []float64 { return p.sol.ModeMarginals() }

// Solution exposes the underlying solver output for advanced callers.
func (p *Performance) Solution() qbd.Solution { return p.sol }

// SteadyState returns a new Performance holding only the four exported
// steady-state fields. It keeps no solution, so its Solution is nil and
// the queue-distribution accessors (QueueProb, QueueTail, ModeMarginals,
// OperativeBreakdown) must not be called on it. It is the shape to retain
// when many results outlive their solves: a few dozen bytes instead of the
// solution's O(s²).
func (p *Performance) SteadyState() *Performance {
	return &Performance{
		MeanJobs:     p.MeanJobs,
		MeanResponse: p.MeanResponse,
		TailDecay:    p.TailDecay,
		Load:         p.Load,
	}
}

func (s System) wrap(opCounts []int, sol qbd.Solution) *Performance {
	l := sol.MeanQueue()
	return &Performance{
		MeanJobs:     l,
		MeanResponse: l / s.ArrivalRate,
		TailDecay:    sol.TailDecay(),
		Load:         s.Load(),
		sol:          sol,
		opCounts:     opCounts,
	}
}

// Solve computes the exact steady state by spectral expansion (paper §3.1).
func (s System) Solve() (*Performance, error) {
	p, xs, err := s.params()
	if err != nil {
		return nil, err
	}
	sol, err := qbd.SolveSpectral(p)
	if err != nil {
		return nil, err
	}
	return s.wrap(xs, sol), nil
}

// SolveApprox computes the geometric approximation (paper §3.2), which is
// cheap, numerically robust for large N, and asymptotically exact under
// heavy load.
func (s System) SolveApprox() (*Performance, error) {
	p, xs, err := s.params()
	if err != nil {
		return nil, err
	}
	sol, err := qbd.SolveApprox(p)
	if err != nil {
		return nil, err
	}
	return s.wrap(xs, sol), nil
}

// SolveMatrixGeometric computes the exact steady state by the R-matrix
// method — the classical alternative the spectral expansion is usually
// compared against.
func (s System) SolveMatrixGeometric() (*Performance, error) {
	p, xs, err := s.params()
	if err != nil {
		return nil, err
	}
	sol, err := qbd.SolveMatrixGeometric(p)
	if err != nil {
		return nil, err
	}
	return s.wrap(xs, sol), nil
}

// SimOptions tunes Simulate. The zero value picks defaults suited to the
// paper's parameter ranges and runs a single replication; set Replications
// (and optionally RelPrecision) for Student-t confidence intervals from
// independent replications.
type SimOptions struct {
	// Seed fixes the random stream (0 = default). With replications it is
	// the base seed from which each replication's stream derives via
	// sim.RepSeed.
	Seed int64
	// Warmup is the discarded initial period (default 5,000 time units).
	Warmup float64
	// Horizon is the measured period per replication (default 300,000 time
	// units).
	Horizon float64
	// Operative / Repair override the system's distributions — this is how
	// non-hyperexponential shapes (Erlang, deterministic) enter, since the
	// analytical model cannot represent them.
	Operative dist.Distribution
	Repair    dist.Distribution

	// Replications is R_max, the maximum number of independent
	// replications. 0 or 1 runs a single replication whose half-widths come
	// from batch means within the run; ≥ 2 runs the independent-replications
	// engine with cross-replication Student-t intervals.
	Replications int
	// MinReplications is the number of replications run before the
	// relative-precision rule is first consulted (default min(4, R_max)).
	MinReplications int
	// RelPrecision is ε of the stopping rule: replications stop once the
	// CI half-width on L is within ε·|L̂| (0 = run exactly Replications).
	RelPrecision float64
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// Workers bounds concurrent replications (default GOMAXPROCS); it never
	// affects the estimates, only the wall-clock time.
	Workers int
	// Gate is an optional external semaphore bounding replication
	// concurrency across runs (see sim.RepConfig.Gate); internal/service
	// sets it to the engine's worker gate. Never affects the estimates.
	Gate chan struct{}
}

// SimResult reports simulated steady-state estimates with confidence
// intervals. With a single replication the half-widths on W and the
// availability are zero (the batch-means method only brackets L); with
// independent replications every half-width is a cross-replication
// Student-t interval at the configured confidence level.
type SimResult struct {
	// MeanQueue is the point estimate of L.
	MeanQueue float64
	// MeanQueueHalfWidth brackets MeanQueue at the Confidence level.
	MeanQueueHalfWidth float64
	// MeanResponse is the point estimate of W.
	MeanResponse float64
	// MeanResponseHalfWidth brackets MeanResponse (replicated runs only).
	MeanResponseHalfWidth float64
	// Availability is the time-averaged fraction of operative servers.
	Availability float64
	// AvailabilityHalfWidth brackets Availability (replicated runs only).
	AvailabilityHalfWidth float64
	// Confidence is the level of every interval above (e.g. 0.95).
	Confidence float64
	// Replications is the number of independent replications run (1 for a
	// single batch-means run).
	Replications int
	// Converged reports whether the relative-precision criterion was met
	// (true when no criterion was requested).
	Converged bool
	// Completed counts jobs finished across all replications.
	Completed int64
	// QueueDist[k] is the fraction of time with exactly k jobs present,
	// averaged across replications.
	QueueDist []float64
}

// Normalized returns the options with every result-affecting default made
// explicit — the canonical form under which simulation output may be
// memoised: two option values with equal Normalized() forms (and equal
// override distributions) produce bit-identical SimResults. Workers and
// Gate are zeroed because they never affect the estimates.
func (o SimOptions) Normalized() SimOptions {
	if o.Warmup == 0 {
		o.Warmup = 5000
	}
	if o.Horizon == 0 {
		o.Horizon = 300000
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Replications <= 1 {
		// Single batch-means run: the replication knobs are inert.
		o.Replications = 1
		o.MinReplications = 0
		o.RelPrecision = 0
	} else {
		// Mirror sim.RunReplicated's defaulting so equal effective
		// configurations share one canonical form.
		if o.MinReplications == 0 {
			o.MinReplications = 4
		}
		if o.MinReplications < 2 {
			o.MinReplications = 2
		}
		if o.MinReplications > o.Replications {
			o.MinReplications = o.Replications
		}
		if o.RelPrecision == 0 {
			o.MinReplications = o.Replications
		}
	}
	o.Workers = 0
	o.Gate = nil
	return o
}

// simConfig assembles the per-replication simulator configuration.
func (s System) simConfig(opts SimOptions) sim.Config {
	op := opts.Operative
	if op == nil {
		op = s.Operative
	}
	rep := opts.Repair
	if rep == nil {
		rep = s.Repair
	}
	return sim.Config{
		Servers:   s.Servers,
		Lambda:    s.ArrivalRate,
		Mu:        s.ServiceRate,
		Operative: op,
		Repair:    rep,
		Seed:      opts.Seed,
		Warmup:    opts.Warmup,
		Horizon:   opts.Horizon,
	}
}

// Simulate estimates the steady state by discrete-event simulation; it
// accepts arbitrary period distributions via SimOptions (e.g. the
// deterministic operative periods of Figure 6's C² = 0 point). With
// Replications ≥ 2 it delegates to SimulateContext and reports
// cross-replication confidence intervals.
func (s System) Simulate(opts SimOptions) (SimResult, error) {
	return s.SimulateContext(context.Background(), opts)
}

// SimulateContext is Simulate with cancellation: replicated runs stop
// between replications when ctx is cancelled. The result is bit-for-bit
// reproducible for a fixed (System, SimOptions) regardless of Workers.
func (s System) SimulateContext(ctx context.Context, opts SimOptions) (SimResult, error) {
	if err := s.Validate(); err != nil {
		return SimResult{}, err
	}
	workers, gate := opts.Workers, opts.Gate
	opts = opts.Normalized()
	opts.Workers, opts.Gate = workers, gate
	if opts.Replications <= 1 {
		res, err := sim.Run(s.simConfig(opts))
		if err != nil {
			return SimResult{}, err
		}
		return SimResult{
			MeanQueue:          res.MeanQueue,
			MeanQueueHalfWidth: res.MeanQueueHalfWidth,
			MeanResponse:       res.MeanResponse,
			Availability:       res.Availability,
			Confidence:         0.95, // sim.Run's batch-means interval level
			Replications:       1,
			Converged:          true,
			Completed:          res.Completed,
			QueueDist:          res.QueueDist,
		}, nil
	}
	rep, err := sim.RunReplicated(ctx, sim.RepConfig{
		Config:          s.simConfig(opts),
		Replications:    opts.Replications,
		MinReplications: opts.MinReplications,
		RelPrecision:    opts.RelPrecision,
		Confidence:      opts.Confidence,
		Workers:         opts.Workers,
		Gate:            opts.Gate,
	})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		MeanQueue:             rep.MeanQueue.Mean,
		MeanQueueHalfWidth:    rep.MeanQueue.HalfWidth,
		MeanResponse:          rep.MeanResponse.Mean,
		MeanResponseHalfWidth: rep.MeanResponse.HalfWidth,
		Availability:          rep.Availability.Mean,
		AvailabilityHalfWidth: rep.Availability.HalfWidth,
		Confidence:            opts.Confidence,
		Replications:          rep.Replications,
		Converged:             rep.Converged,
		Completed:             rep.Completed,
		QueueDist:             rep.QueueDist,
	}, nil
}
