package core

import (
	"math"
	"sync"

	"repro/internal/qbd"
)

// BatchSolver evaluates one System's spectral solution across a batch of
// arrival rates — the shape of every λ-sweep behind Figures 4–9. It is the
// core-level face of qbd.SweepSolver: construction assembles the solver
// parameters and hoists every λ-independent piece once, the capacity
// included; each Solve then reuses pooled workspaces, so a
// G-point sweep costs one environment build plus G allocation-light point
// evaluations, where G separate System.Solve calls would pay G environment
// builds, hoists and fresh workspaces.
//
// Solve(λ) returns a Performance bit-identical (on amd64) to what
// sys.Solve() — the same solver run as a batch of one — returns for the
// same system with ArrivalRate = λ, including per-point errors for invalid
// or unstable rates; see qbd.SweepSolver for the equivalence contract. A
// BatchSolver is safe for concurrent use.
type BatchSolver struct {
	base     System
	opCounts []int
	sv       *qbd.SweepSolver
	steady   sync.Pool // *steadyWork, for SolveSteady
}

// steadyWork is a worker with the solution it solves into, reused whole
// by SolveSteady so a point allocates neither.
type steadyWork struct {
	w   *qbd.SweepWorker
	sol qbd.SpectralSolution
}

// NewBatchSolver validates the λ-independent part of base and hoists the
// environment and solver state. base.ArrivalRate is ignored — each Solve
// supplies its own rate — and a construction error is one that every
// point of the batch would report.
func NewBatchSolver(base System) (*BatchSolver, error) {
	probe := base
	if !(probe.ArrivalRate > 0) || math.IsInf(probe.ArrivalRate, 0) {
		probe.ArrivalRate = 1 // structural validation only; Solve rates replace it
	}
	p, xs, err := probe.params()
	if err != nil {
		return nil, err
	}
	sv, err := qbd.NewSweepSolver(p)
	if err != nil {
		return nil, err
	}
	b := &BatchSolver{base: base, opCounts: xs, sv: sv}
	b.steady.New = func() any { return &steadyWork{w: sv.NewWorker()} }
	return b, nil
}

// Modes returns s, the number of environment modes.
func (b *BatchSolver) Modes() int { return b.sv.Size() }

// Solve evaluates one arrival rate, mirroring System.Solve exactly: the
// same validation precedence, the same solver errors, and on success a
// Performance whose every field matches a one-off System.Solve bit for
// bit. The
// returned Performance is caller-owned and independent of the solver's
// internal workspaces.
func (b *BatchSolver) Solve(lambda float64) (*Performance, error) {
	sys := b.base
	sys.ArrivalRate = lambda
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	sol, err := b.sv.Solve(lambda)
	if err != nil {
		return nil, err
	}
	l := sol.MeanQueue()
	return &Performance{
		MeanJobs:     l,
		MeanResponse: l / lambda,
		TailDecay:    sol.TailDecay(),
		Load:         lambda / b.sv.Capacity(),
		sol:          sol,
		opCounts:     b.opCounts,
	}, nil
}

// SolveSteady is Solve(lambda).SteadyState() without the full solution:
// it solves on a pooled worker into that worker's own reused solution and
// returns only L, W, z_s and the load, bit for bit what SteadyState would
// keep, with Solve's errors. A memoising caller that keeps nothing else
// saves the O(s²) solution Solve allocates and drops per point.
func (b *BatchSolver) SolveSteady(lambda float64) (*Performance, error) {
	sys := b.base
	sys.ArrivalRate = lambda
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	sw := b.steady.Get().(*steadyWork)
	defer b.steady.Put(sw)
	if err := sw.w.SolveInto(lambda, &sw.sol); err != nil {
		return nil, err
	}
	l := sw.sol.MeanQueue()
	return &Performance{
		MeanJobs:     l,
		MeanResponse: l / lambda,
		TailDecay:    sw.sol.TailDecay(),
		Load:         lambda / b.sv.Capacity(),
	}, nil
}
