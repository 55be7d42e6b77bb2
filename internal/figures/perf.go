package figures

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/service"
)

// Paper parameter set (§4): fitted operative-period distribution, repair
// rate η = 25 except where a figure overrides it, and unit service rate.
var (
	paperOps = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
)

func paperSystem(n int, lambda, eta float64) core.System {
	return core.System{
		Servers:     n,
		ArrivalRate: lambda,
		ServiceRate: 1,
		Operative:   paperOps,
		Repair:      dist.Exp(eta),
	}
}

// Figure5 reproduces "Cost as a function of N": C = 4L + N against
// N = 9..17 for λ = 7, 8 and 8.5, with η = 25. The paper's optima are
// N = 11, 12 and 13 respectively. The three N-sweeps run on the shared
// evaluation engine, so the 27 exact solves proceed concurrently and
// repeat runs hit the solver cache.
func Figure5(opts Options) (*Figure, error) {
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	eng := opts.engine()
	fig := &Figure{
		ID:     "fig5",
		Title:  "Cost as a function of N (c1=4, c2=1, η=25)",
		XLabel: "servers N",
		YLabel: "cost C",
	}
	for _, lambda := range []float64{7.0, 8.0, 8.5} {
		sweep, err := eng.SweepServers(context.Background(), paperSystem(0, lambda, 25), cm, 9, 17, core.Spectral)
		if err != nil {
			return nil, fmt.Errorf("λ=%v: %w", lambda, err)
		}
		s := Series{Label: fmt.Sprintf("lambda=%.1f", lambda)}
		for _, pt := range sweep {
			s.X = append(s.X, float64(pt.Servers))
			s.Y = append(s.Y, pt.Cost)
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf("λ=%.1f: optimal N = %.0f (paper: %s)",
			lambda, s.ArgminY(), map[float64]string{7: "11", 8: "12", 8.5: "13"}[lambda]))
	}
	return fig, nil
}

// Figure6 reproduces "Average queue size against coefficient of variation":
// N = 10, η = 0.2, operative mean 34.62 fixed while C² varies by growing
// the long phase (ξ₂ pinned); λ = 8.5 and 8.6. The C² = 0 point cannot be
// represented by a hyperexponential and is obtained by simulation, exactly
// as in the paper; the exact C² ≥ 1 points are one engine batch per λ.
func Figure6(opts Options) (*Figure, error) {
	const (
		n         = 10
		eta       = 0.2
		opMean    = 34.62
		shortMean = 1 / 0.1663 // the fitted short phase pins ξ₂
	)
	cv2s := []float64{1, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	// The C²=0 point runs as parallel independent replications; per-rep
	// horizons keep the total simulated time at the old single-run budget.
	reps, horizon := 4, 100000.0
	if opts.Quick {
		cv2s = []float64{1, 4.6, 10, 18}
		// The load is ≈0.97–0.98, so even the quick horizon must stay long
		// enough for the C²=0 simulated point to be meaningful.
		reps, horizon = 2, 75000
	}
	eng := opts.engine()
	fig := &Figure{
		ID:     "fig6",
		Title:  "Average queue size against coefficient of variation (N=10, η=0.2, ξ=0.0289)",
		XLabel: "C² of operative periods",
		YLabel: "mean jobs L",
	}
	for _, lambda := range []float64{8.5, 8.6} {
		s := Series{Label: fmt.Sprintf("lambda=%.1f", lambda)}
		// C² = 0: deterministic operative periods, by replicated simulation
		// with a cross-replication confidence interval.
		sys := paperSystem(n, lambda, eta)
		res, err := sys.Simulate(core.SimOptions{
			Seed:         opts.Seed + 601,
			Warmup:       horizon / 20,
			Horizon:      horizon,
			Operative:    dist.Deterministic{Value: opMean},
			Replications: reps,
		})
		if err != nil {
			return nil, fmt.Errorf("λ=%v C²=0 simulation: %w", lambda, err)
		}
		s.X = append(s.X, 0)
		s.Y = append(s.Y, res.MeanQueue)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"λ=%.1f: simulated C²=0 point L = %.4g ± %.3g (95%% CI, %d replications)",
			lambda, res.MeanQueue, res.MeanQueueHalfWidth, res.Replications))
		// C² ≥ 1: exact solution over the fixed-short-phase family, solved
		// as one concurrent batch.
		systems := make([]core.System, len(cv2s))
		for i, cv2 := range cv2s {
			op, err := dist.HyperExp2FixedShortPhase(opMean, cv2, shortMean)
			if err != nil {
				return nil, fmt.Errorf("C²=%v family: %w", cv2, err)
			}
			systems[i] = paperSystem(n, lambda, eta)
			systems[i].Operative = op
		}
		perfs, err := eng.SweepSystems(context.Background(), systems, core.Spectral)
		if err != nil {
			return nil, fmt.Errorf("λ=%v C² sweep: %w", lambda, err)
		}
		for i, cv2 := range cv2s {
			s.X = append(s.X, cv2)
			s.Y = append(s.Y, perfs[i].MeanJobs)
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"λ=%.1f: L grows from %.4g (C²=0, simulated) to %.4g (C²=%g)",
			lambda, s.Y[0], s.Y[len(s.Y)-1], s.X[len(s.X)-1]))
	}
	fig.Notes = append(fig.Notes,
		"paper shape: queue size grows with C²; effect strengthens with load")
	return fig, nil
}

// Figure7 reproduces "Average queue size against average repair time":
// N = 10, λ = 8, operative mean 34.62; exponential vs fitted
// hyperexponential operative periods while 1/η sweeps 1..5. Both variants'
// repair sweeps are one engine batch.
func Figure7(opts Options) (*Figure, error) {
	repairMeans := []float64{1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	if opts.Quick {
		repairMeans = []float64{1, 3, 5}
	}
	fig := &Figure{
		ID:     "fig7",
		Title:  "Average queue size against average repair time (N=10, λ=8, ξ=0.0289)",
		XLabel: "mean repair time 1/η",
		YLabel: "mean jobs L",
	}
	variants := []struct {
		label string
		op    *dist.HyperExp
	}{
		{"exponential", dist.Exp(1 / paperOps.Mean())},
		{"hyperexponential", paperOps},
	}
	var systems []core.System
	for _, v := range variants {
		for _, rm := range repairMeans {
			sys := paperSystem(10, 8, 1/rm)
			sys.Operative = v.op
			systems = append(systems, sys)
		}
	}
	perfs, err := opts.engine().SweepSystems(context.Background(), systems, core.Spectral)
	if err != nil {
		return nil, fmt.Errorf("repair sweep: %w", err)
	}
	for vi, v := range variants {
		s := Series{Label: v.label}
		for ri, rm := range repairMeans {
			s.X = append(s.X, rm)
			s.Y = append(s.Y, perfs[vi*len(repairMeans)+ri].MeanJobs)
		}
		fig.Series = append(fig.Series, s)
	}
	gap0 := fig.Series[1].Y[0] - fig.Series[0].Y[0]
	gapEnd := fig.Series[1].Y[len(fig.Series[1].Y)-1] - fig.Series[0].Y[len(fig.Series[0].Y)-1]
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"exponential assumption underestimates L by %.3g at 1/η=1 and %.3g at 1/η=5 (paper: gap widens)",
		gap0, gapEnd))
	return fig, nil
}

// Figure8 reproduces "Exact and approximate solutions: increasing load":
// N = 10, η = 25; L against offered load for the exact spectral solution
// and the geometric approximation, which converge as load → 1. Exact and
// approximate solves go out as a single mixed-method engine batch.
func Figure8(opts Options) (*Figure, error) {
	loads := []float64{0.89, 0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99}
	if opts.Quick {
		loads = []float64{0.90, 0.95, 0.99}
	}
	fig := &Figure{
		ID:     "fig8",
		Title:  "Exact and approximate solutions: increasing load (N=10, η=25)",
		XLabel: "load",
		YLabel: "mean jobs L",
	}
	capacity := 10.0 * paperSystem(10, 1, 25).Availability()
	jobs := make([]service.Job, 0, 2*len(loads))
	for _, m := range []core.Method{core.Spectral, core.Approximation} {
		for _, load := range loads {
			jobs = append(jobs, service.Job{System: paperSystem(10, load*capacity, 25), Method: m})
		}
	}
	results := opts.engine().EvaluateBatch(context.Background(), jobs)
	if err := service.FirstError(results); err != nil {
		return nil, fmt.Errorf("load sweep: %w", err)
	}
	exact := Series{Label: "exact solution"}
	approx := Series{Label: "approximation"}
	for i, load := range loads {
		exact.X = append(exact.X, load)
		exact.Y = append(exact.Y, results[i].Perf.MeanJobs)
		approx.X = append(approx.X, load)
		approx.Y = append(approx.Y, results[len(loads)+i].Perf.MeanJobs)
	}
	fig.Series = []Series{exact, approx}
	first := relGap(exact.Y[0], approx.Y[0])
	last := relGap(exact.Y[len(exact.Y)-1], approx.Y[len(approx.Y)-1])
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"relative gap %.3g at load %.2f shrinking to %.3g at load %.2f (paper: approximation asymptotically exact)",
		first, loads[0], last, loads[len(loads)-1]))
	return fig, nil
}

// Figure9 reproduces "Average response time as a function of N": λ = 7.5,
// η = 25, N = 8..13, exact and approximate W. The paper reads off that at
// least 9 servers keep W ≤ 1.5. The N-sweep runs both methods as one
// engine batch; the min-N answer reuses the same cached solves.
func Figure9(opts Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig9",
		Title:  "Average response time as a function of N (λ=7.5, η=25)",
		XLabel: "servers N",
		YLabel: "mean response W",
	}
	var stableN []int
	for n := 8; n <= 13; n++ {
		if paperSystem(n, 7.5, 25).Stable() {
			stableN = append(stableN, n)
		}
	}
	jobs := make([]service.Job, 0, 2*len(stableN))
	for _, m := range []core.Method{core.Spectral, core.Approximation} {
		for _, n := range stableN {
			jobs = append(jobs, service.Job{System: paperSystem(n, 7.5, 25), Method: m})
		}
	}
	eng := opts.engine()
	results := eng.EvaluateBatch(context.Background(), jobs)
	if err := service.FirstError(results); err != nil {
		return nil, fmt.Errorf("N sweep: %w", err)
	}
	exact := Series{Label: "exact solution"}
	approx := Series{Label: "approximation"}
	for i, n := range stableN {
		exact.X = append(exact.X, float64(n))
		exact.Y = append(exact.Y, results[i].Perf.MeanResponse)
		approx.X = append(approx.X, float64(n))
		approx.Y = append(approx.Y, results[len(stableN)+i].Perf.MeanResponse)
	}
	fig.Series = []Series{exact, approx}
	minN, err := eng.Provision(context.Background(), paperSystem(0, 7.5, 25), core.Objective{Target: 1.5}, 1, 20, core.Spectral)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"minimum N for W ≤ 1.5: %d (paper: at least 9 servers)", minN.Servers))
	return fig, nil
}

func relGap(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / a
}
