package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/figures"
	"repro/internal/linalg"
	"repro/internal/obs/trace"
	"repro/internal/qbd"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transient"
)

// One benchmark per table/figure in the paper's evaluation, plus ablation
// benches for the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The figure benches execute the same experiment code as cmd/mus-figures
// (Quick variants where a figure needs long simulations) and report the
// headline metric through b.ReportMetric so the regenerated values are
// visible in benchmark output.

var (
	benchOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	benchRepair = dist.Exp(25)
)

func benchFigure(b *testing.B, build func(figures.Options) (*figures.Figure, error), opts figures.Options) {
	b.Helper()
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = build(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := figures.Render(io.Discard, fig); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure3 regenerates the §2 operative-period density fit
// (empirical histogram + fitted H2 + KS decisions) on the synthetic log.
func BenchmarkFigure3(b *testing.B) {
	benchFigure(b, figures.Figure3, figures.Options{Quick: true, Seed: 1})
}

// BenchmarkFigure4 regenerates the §2 inoperative-period density fit.
func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, figures.Figure4, figures.Options{Quick: true, Seed: 1})
}

// BenchmarkFigure5 regenerates the cost-vs-N curves (λ = 7, 8, 8.5) and
// their optima (paper: N* = 11, 12, 13).
func BenchmarkFigure5(b *testing.B) {
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Figure5(figures.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		b.ReportMetric(s.ArgminY(), "optN_"+s.Label)
	}
}

// BenchmarkFigure6 regenerates queue size vs operative-period C²
// (λ = 8.5, 8.6; simulated C² = 0 point).
func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, figures.Figure6, figures.Options{Quick: true, Seed: 1})
}

// BenchmarkFigure7 regenerates queue size vs mean repair time for
// exponential vs hyperexponential operative periods.
func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, figures.Figure7, figures.Options{})
}

// BenchmarkFigure8 regenerates the exact-vs-approximation load sweep.
func BenchmarkFigure8(b *testing.B) {
	benchFigure(b, figures.Figure8, figures.Options{})
}

// BenchmarkFigure9 regenerates response time vs N (exact and approximate)
// and the min-N-for-SLA answer (paper: 9).
func BenchmarkFigure9(b *testing.B) {
	benchFigure(b, figures.Figure9, figures.Options{})
}

// BenchmarkFitPipeline regenerates the §2 in-text "table": moments, fitted
// H2 parameters and KS statistics for both period types.
func BenchmarkFitPipeline(b *testing.B) {
	events, err := dataset.Generate(dataset.GenConfig{Events: 20000, Servers: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *figures.FitReport
	for i := 0; i < b.N; i++ {
		rep, err = figures.AnalyzeDataset(events)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Operative.CV2, "opCV2")
	b.ReportMetric(rep.Operative.KSH2.D, "opKS_D")
}

// --- Ablation benches (DESIGN.md) ---

// benchParams builds the Sun environment's solver parameters as
// core.System.Params does for every served solve, server description
// included, so the solver benches time the path the service runs.
func benchParams(b *testing.B, n int, lambda float64) qbd.Params {
	b.Helper()
	sys := core.System{Servers: n, ArrivalRate: lambda, ServiceRate: 1, Operative: benchOps, Repair: benchRepair}
	p, err := sys.Params()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSolverComparison measures the three exact solution methods as
// the environment grows: spectral expansion vs matrix-geometric vs the
// truncated-chain oracle.
func BenchmarkSolverComparison(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		p := benchParams(b, n, 0.8*float64(n))
		b.Run(fmt.Sprintf("spectral/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qbd.SolveSpectral(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("matrixgeometric/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qbd.SolveMatrixGeometric(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("truncated/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qbd.SolveTruncated(p, 300); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundaryElimination contrasts the O(N·s³) staged boundary
// elimination against the naive dense (N+1)s×(N+1)s assembly of the same
// spectral solution.
func BenchmarkBoundaryElimination(b *testing.B) {
	for _, n := range []int{4, 8} {
		p := benchParams(b, n, 0.8*float64(n))
		b.Run(fmt.Sprintf("staged/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qbd.SolveSpectral(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dense/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qbd.SolveSpectralDense(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDominantEigenvalue contrasts the geometric approximation, which
// finds z_s as the all-Perron multiset's one scalar root, with extracting
// z_s from a full spectral solve.
func BenchmarkDominantEigenvalue(b *testing.B) {
	p := benchParams(b, 10, 8)
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qbd.SolveApprox(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fulleigensolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sol, err := qbd.SolveSpectral(p)
			if err != nil {
				b.Fatal(err)
			}
			_ = sol.TailDecay()
		}
	})
}

// BenchmarkFitting contrasts the three hyperexponential fitting routes on
// the paper's operative-period moments.
func BenchmarkFitting(b *testing.B) {
	moments := make([]float64, 5)
	for k := 1; k <= 5; k++ {
		moments[k-1] = benchOps.Moment(k)
	}
	b.Run("closedform3moments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.FitH2Moments(moments[0], moments[1], moments[2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("newton", func(b *testing.B) {
		start := dist.MustHyperExp([]float64{0.5, 0.5}, []float64{0.1, 0.02})
		for i := 0; i < b.N; i++ {
			if _, err := dist.FitHNNewton(start, moments[:3]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brutesearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.FitHNSearch(2, moments[:3]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulation measures the discrete-event simulator on the Figure 6
// configuration (N = 10, heavy load).
func BenchmarkSimulation(b *testing.B) {
	cfg := sim.Config{
		Servers:   10,
		Lambda:    8.5,
		Mu:        1,
		Operative: benchOps,
		Repair:    dist.Exp(0.2),
		Warmup:    1000,
		Horizon:   20000,
		Seed:      1,
	}
	var res sim.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanQueue, "L")
}

// BenchmarkKolmogorovSmirnov measures the §2 goodness-of-fit test on a
// 50-bin histogram.
func BenchmarkKolmogorovSmirnov(b *testing.B) {
	events, err := dataset.Generate(dataset.GenConfig{Events: 20000, Servers: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	clean := dataset.Clean(events)
	h, err := stats.NewHistogram(clean.Operative, 50, 0, 250)
	if err != nil {
		b.Fatal(err)
	}
	cdf := benchOps.CDF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.KolmogorovSmirnov(h, cdf)
	}
}

// BenchmarkEnvEnumeration measures what the served path builds per
// environment, as N grows past the paper's reported numerical limit
// (N ≈ 24) to N = 64, where the Sun model has s = 2145 modes: params is
// System.Params, one server's description, qbd's enumeration of its modes
// (eq. 12) and the service diagonals over them; hoist is
// qbd.NewSweepSolver on those Params, the lumping and the factored stage's
// tables; approx is a whole System.SolveApprox (§3.2), one root and one
// vector; load is Params.Load, which reads one server's k×k π.
func BenchmarkEnvEnumeration(b *testing.B) {
	for _, n := range []int{10, 24, 32, 64} {
		sys := core.System{Servers: n, ArrivalRate: 0.7 * float64(n) * benchRepair.Rate() / (benchOps.Rate() + benchRepair.Rate()), ServiceRate: 1, Operative: benchOps, Repair: benchRepair}
		p, err := sys.Params()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/params", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Params(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/hoist", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qbd.NewSweepSolver(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/approx", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.SolveApprox(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/load", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Load(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransient measures the uniformization extension: the transient
// distribution of a cold-started cluster at t = 100.
func BenchmarkTransient(b *testing.B) {
	p := benchParams(b, 4, 2.5)
	sv, err := transient.NewSolver(p, transient.Options{MaxLevel: 120})
	if err != nil {
		b.Fatal(err)
	}
	v0, err := sv.InitialState(0, p.Size()-1)
	if err != nil {
		b.Fatal(err)
	}
	var d *transient.Distribution
	for i := 0; i < b.N; i++ {
		d, err = sv.At(v0, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.MeanQueue(), "EZt100")
}

// BenchmarkLambdaSweep measures the internal/service evaluation engine on
// a Figure 8 style λ-sweep (N = 10, 32 points): the serial baseline solves
// one point at a time on one goroutine; pooled fans the batch across the
// worker pool with the cache disabled; cached repeats the pooled sweep
// against a warm solver cache, the steady state of overlapping figure runs
// and mus-serve traffic. Expected ordering: cached ≪ pooled < serial on
// any multi-core machine.
func BenchmarkLambdaSweep(b *testing.B) {
	base := core.System{
		Servers:     10,
		ArrivalRate: 1,
		ServiceRate: 1,
		Operative:   benchOps,
		Repair:      benchRepair,
	}
	lambdas := make([]float64, 32)
	for i := range lambdas {
		lambdas[i] = 5 + 4*float64(i)/float64(len(lambdas)) // loads ≈ 0.50–0.89
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range lambdas {
				sys := base
				sys.ArrivalRate = l
				if _, err := sys.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		eng := service.NewEngine(service.Config{CacheSize: -1})
		for i := 0; i < b.N; i++ {
			if _, err := eng.SweepLambda(context.Background(), base, lambdas, core.Spectral); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := service.NewEngine(service.Config{})
		if _, err := eng.SweepLambda(context.Background(), base, lambdas, core.Spectral); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SweepLambda(context.Background(), base, lambdas, core.Spectral); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(eng.Stats().Cache.HitRate(), "hitrate")
	})
}

// sweepBenchLambdas is the 64-point λ-grid (loads ≈ 0.50–0.89, N = 10)
// shared by BenchmarkSweepScalar and BenchmarkSweepBatched, so what
// separates their ns/op is the one-off solve's hoist and fresh workspace.
func sweepBenchLambdas() []float64 {
	lambdas := make([]float64, 64)
	for i := range lambdas {
		lambdas[i] = 5 + 4*float64(i)/float64(len(lambdas))
	}
	return lambdas
}

// BenchmarkSweepScalar measures a one-off solve: each iteration calls
// qbd.SolveSpectral for one grid point, which hoists the environment and
// solves the point on a fresh worker — one hoist plus one point, with no
// workspace reuse. ns/op is the cost of one grid point solved on its own.
func BenchmarkSweepScalar(b *testing.B) {
	p := benchParams(b, 10, 1)
	lambdas := sweepBenchLambdas()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Lambda = lambdas[i%len(lambdas)]
		sol, err := qbd.SolveSpectral(p)
		if err != nil {
			b.Fatal(err)
		}
		sink += sol.MeanQueue()
	}
	_ = sink
}

// BenchmarkSweepBatched measures the same grid through a warm
// qbd.SweepWorker: λ-invariant work hoisted at construction, every point
// evaluated into reused workspaces. ns/op is the cost of one grid point
// and allocs/op must be exactly 0 — CI gates on both (ns/op against the
// committed baseline via tools/benchjson -threshold, 0 allocs via
// -zeroalloc).
func BenchmarkSweepBatched(b *testing.B) {
	p := benchParams(b, 10, 1)
	sv, err := qbd.NewSweepSolver(p)
	if err != nil {
		b.Fatal(err)
	}
	w := sv.NewWorker()
	var sol qbd.SpectralSolution
	lambdas := sweepBenchLambdas()
	for _, l := range lambdas { // warm the workspaces outside the timer
		if err := w.SolveInto(l, &sol); err != nil {
			b.Fatal(err)
		}
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.SolveInto(lambdas[i%len(lambdas)], &sol); err != nil {
			b.Fatal(err)
		}
		sink += sol.MeanQueue()
	}
	_ = sink
}

// BenchmarkSpectralKernels attributes a batched point's cost to its
// kernels, at the shapes one N = 10 point of the Sun environment (s = 66
// modes, λ = 7) feeds them: the eigenvalues of the 132×132 companion and
// the real null vector of the 66×66 Q(z)ᵀ at the dominant eigenvalue (the
// eigen stage of the dense oracle, SolveSpectralDense, which no served
// point runs), the real null vector of the 66×66 level-(N−1) matching
// system that closes every served point, the inverse of the 66×66
// boundary matrix K_{N−2} (the last matrix a point inverts), and the
// factored eigen stage every served point runs: 66 roots and their
// closed-form left vectors. The matching system and the inverse are also
// timed at N = 8 (s = 45, λ = 5.6, the same load), the shape of every
// jobs-durable point and of a third of solve-cold. Inputs are built before
// the timer; every iteration copies its input into a warm arena matrix
// (the factored member reuses a warm worker), so ns/op is one kernel call
// and allocs/op must be exactly 0 (CI gates both, so a slowdown is
// attributed to a kernel and not only to the whole point).
func BenchmarkSpectralKernels(b *testing.B) {
	const lambda = 7.0
	p := benchParams(b, 10, lambda)
	sol, err := qbd.SolveSpectral(p)
	if err != nil {
		b.Fatal(err)
	}
	a := p.EnvMatrix()
	s := a.Rows
	da := a.RowSums()
	c := p.ServiceDiag[len(p.ServiceDiag)-1]
	// Companion of the polynomial in w = 1/z: [[0, I], [−Q2ᵀ/λ, −Q1ᵀ/λ]].
	companion := linalg.NewMatrix(2*s, 2*s)
	for i := 0; i < s; i++ {
		companion.Set(i, s+i, 1)
		companion.Set(s+i, i, -c[i]/lambda)
		for j := 0; j < s; j++ {
			v := a.At(j, i)
			if i == j {
				v -= da[i] + lambda + c[i]
			}
			companion.Set(s+i, s+j, -v/lambda)
		}
	}
	realQ := p.QofZ(sol.TailDecay()).T()
	kLast, matching := boundaryKernelInputs(b, p, sol)
	p8 := benchParams(b, 8, 0.8*lambda)
	sol8, err := qbd.SolveSpectral(p8)
	if err != nil {
		b.Fatal(err)
	}
	kLast8, matching8 := boundaryKernelInputs(b, p8, sol8)

	run := func(name string, kernel func(*linalg.Arena) error) {
		b.Run(name, func(b *testing.B) {
			var ar linalg.Arena
			for i := 0; i < 3; i++ { // the arena reaches its high-water mark
				if err := kernel(&ar); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kernel(&ar); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run(fmt.Sprintf("eigenvalues/n=%d", 2*s), func(ar *linalg.Arena) error {
		ar.Reset()
		w := ar.MatUninit(2*s, 2*s)
		copy(w.Data, companion.Data)
		_, err := linalg.EigenvaluesScratch(w, ar)
		return err
	})
	run(fmt.Sprintf("nullvector/real/n=%d", s), func(ar *linalg.Arena) error {
		ar.Reset()
		w := ar.MatUninit(s, s)
		copy(w.Data, realQ.Data)
		_, err := linalg.ForcedNullVectorScratch(w, ar)
		return err
	})
	for _, m := range []*linalg.Matrix{matching, matching8} {
		run(fmt.Sprintf("matching/n=%d", m.Rows), func(ar *linalg.Arena) error {
			ar.Reset()
			w := ar.MatUninit(m.Rows, m.Rows)
			copy(w.Data, m.Data)
			_, err := linalg.ForcedNullVectorScratch(w, ar)
			return err
		})
	}
	for _, k := range []*linalg.Matrix{kLast, kLast8} {
		run(fmt.Sprintf("inverse/n=%d", k.Rows), func(ar *linalg.Arena) error {
			ar.Reset()
			w := ar.MatUninit(k.Rows, k.Rows)
			copy(w.Data, k.Data)
			_, err := linalg.InverseScratch(w, ar)
			return err
		})
	}
	// The factored eigen stage every served point runs: every multiset's
	// root and its closed-form left vector, on a warm worker.
	sv, err := qbd.NewSweepSolver(p)
	if err != nil {
		b.Fatal(err)
	}
	fw := sv.NewWorker()
	var roots qbd.SpectralSolution
	run(fmt.Sprintf("factored/n=%d", s), func(*linalg.Arena) error {
		return fw.EigenStage(lambda, &roots)
	})
}

// boundaryKernelInputs builds the matrices p's boundary feeds the kernels:
// K_j = Dᴬ + λI + C_j − A − λ·S_{j−1}, S_j = C_{j+1}·K_j⁻¹, so a point
// inverts K_0..K_{N−2} and matches against K_{N−1}. It returns K_{N−2},
// the last matrix inverted, and the level-(N−1) matching system,
// transposed: Mᵀ with M[t][·] = u_t·(K_{N−1} − z_t·C_N).
func boundaryKernelInputs(b *testing.B, p qbd.Params, sol *qbd.SpectralSolution) (kLast, matching *linalg.Matrix) {
	b.Helper()
	a := p.EnvMatrix()
	s := a.Rows
	da := a.RowSums()
	c := p.ServiceDiag[len(p.ServiceDiag)-1]
	var k, stage *linalg.Matrix
	for j := 0; j+1 < len(p.ServiceDiag); j++ {
		k = a.Scaled(-1)
		for i := 0; i < s; i++ {
			k.Add(i, i, da[i]+p.Lambda+p.ServiceDiag[j][i])
		}
		if stage != nil {
			k = k.Minus(stage.Scaled(p.Lambda))
		}
		if j+2 == len(p.ServiceDiag) {
			break // k is K_{N−1}
		}
		inv, err := linalg.Inverse(k)
		if err != nil {
			b.Fatal(err)
		}
		kLast = k
		stage = linalg.Diag(p.ServiceDiag[j+1]).Times(inv)
	}
	matching = linalg.NewMatrix(s, s)
	for t, z := range sol.Eigenvalues() {
		u, err := linalg.ForcedLeftNullVector(p.QofZ(z))
		if err != nil {
			b.Fatal(err)
		}
		for col, v := range k.VecTimes(u) {
			matching.Set(col, t, v-z*c[col]*u[col])
		}
	}
	return kLast, matching
}

// BenchmarkSpectralFrontier records the reliability and cost frontier
// tabled in EXPERIMENTS.md: one warm batched point of the Sun model
// (η = 25, and η = 0.2 at N = 10 and 20) at each N and load, solved
// through core.System.Params and a reused qbd.SweepWorker as the service
// solves it. ns/op is one point; L and the balance residual over levels
// 0..N+10 (in units of 1e-15) are reported as metrics, and logged in full
// with -v. Run it with -benchtime 3x: a point takes seconds at N = 32.
func BenchmarkSpectralFrontier(b *testing.B) {
	type row struct {
		eta  float64
		n    int
		load float64
	}
	var rows []row
	for _, n := range []int{10, 16, 20, 22, 24, 28, 32} {
		rows = append(rows, row{25, n, 0.7}, row{25, n, 0.99})
	}
	for _, n := range []int{10, 20} {
		rows = append(rows, row{0.2, n, 0.7}, row{0.2, n, 0.99})
	}
	for _, r := range rows {
		b.Run(fmt.Sprintf("eta=%g/N=%d/load=%g", r.eta, r.n, r.load), func(b *testing.B) {
			sys := core.System{Servers: r.n, ServiceRate: 1, Operative: benchOps, Repair: dist.Exp(r.eta)}
			sys.ArrivalRate = r.load * float64(r.n) * sys.Availability()
			p, err := sys.Params()
			if err != nil {
				b.Fatal(err)
			}
			sv, err := qbd.NewSweepSolver(p)
			if err != nil {
				b.Fatal(err)
			}
			w := sv.NewWorker()
			var sol qbd.SpectralSolution
			if err := w.SolveInto(p.Lambda, &sol); err != nil {
				b.Fatal(err) // also warms the worker outside the timer
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.SolveInto(p.Lambda, &sol); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			res := qbd.BalanceResidual(p, &sol, r.n+10)
			b.ReportMetric(sol.MeanQueue(), "L")
			b.ReportMetric(res*1e15, "residual/1e-15")
			b.Logf("L = %.10g, balance residual %.2g", sol.MeanQueue(), res)
		})
	}
}

// BenchmarkEngineColdSolve measures the engine's cache-miss path in the
// shape of cold /v1/solve traffic (perfbench's solve-cold workload): a
// default-config engine evaluates a fresh λ every iteration, N cycling
// 8, 9, 10 at loads in [0.70, 0.71), so every call misses the memo and
// solves through its environment's hoisted solver. The three environments
// are built before the timer starts, as a running daemon has them. ns/op
// and allocs/op are one cold solve's engine cost.
func BenchmarkEngineColdSolve(b *testing.B) {
	eng := service.NewEngine(service.Config{})
	evaluate := func(n int, load float64) {
		sys := core.System{Servers: n, ServiceRate: 1, Operative: benchOps, Repair: benchRepair}
		sys.ArrivalRate = load * float64(n) * sys.Availability()
		if _, err := eng.Evaluate(context.Background(), sys, core.Spectral); err != nil {
			b.Fatal(err)
		}
	}
	for n := 8; n <= 10; n++ {
		evaluate(n, 0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A golden-ratio rotation never repeats a load, so no λ is a hit.
		evaluate(8+i%3, 0.70+0.01*math.Mod(float64(i)*0.6180339887498949, 1))
	}
}

// BenchmarkOptimizeServers times one Figure 5 cost search (λ = 8, c₁ = 4,
// c₂ = 1) on the engine over the default /v1/plan and /v1/optimize range
// [1, 64], with the solution cache off so every op solves what the search
// dispatches. The bound L ≥ λ/µ keeps that to N = 9..13; solves/op
// reports it, and a search that evaluated the whole range would take
// minutes per op.
func BenchmarkOptimizeServers(b *testing.B) {
	eng := service.NewEngine(service.Config{CacheSize: -1})
	sys := core.System{
		ArrivalRate: 8,
		ServiceRate: 1,
		Operative:   benchOps,
		Repair:      benchRepair,
	}
	obj := core.Objective{Cost: core.CostModel{HoldingCost: 4, ServerCost: 1}}
	var best core.ServerSweepPoint
	var err error
	before := eng.Stats().Solves
	for i := 0; i < b.N; i++ {
		best, err = eng.Provision(context.Background(), sys, obj, 1, 64, core.Spectral)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(best.Servers), "optN")
	b.ReportMetric(float64(eng.Stats().Solves-before)/float64(b.N), "solves/op")
}

// BenchmarkReplications measures the parallel speedup of the replicated
// simulation engine: the same 8-replication run at 1 worker and at
// GOMAXPROCS. Replications are embarrassingly parallel, so the speedup
// should be near-linear until the core count exceeds the replication
// count; reported L is identical for every worker count by construction.
func BenchmarkReplications(b *testing.B) {
	cfg := sim.RepConfig{
		Config: sim.Config{
			Servers:   10,
			Lambda:    8.5,
			Mu:        1,
			Operative: benchOps,
			Repair:    dist.Exp(0.2),
			Warmup:    500,
			Horizon:   10000,
			Seed:      1,
		},
		Replications: 8,
	}
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		if p > 2 {
			counts = append(counts, 2)
		}
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			var res sim.RepResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = sim.RunReplicated(context.Background(), c)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.MeanQueue.Mean, "L")
			b.ReportMetric(res.MeanQueue.HalfWidth, "CI95")
		})
	}
}

// BenchmarkSimulateService measures the engine's memoised simulation path:
// the first call runs 4 replications, every subsequent call is a cache hit.
func BenchmarkSimulateService(b *testing.B) {
	eng := service.NewEngine(service.Config{})
	sys := core.System{
		Servers:     10,
		ArrivalRate: 8,
		ServiceRate: 1,
		Operative:   benchOps,
		Repair:      benchRepair,
	}
	opts := core.SimOptions{Seed: 1, Warmup: 500, Horizon: 10000, Replications: 4}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := opts
			o.Seed = int64(i + 1) // unique key: every call simulates
			if _, err := eng.Simulate(context.Background(), sys, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := eng.Simulate(context.Background(), sys, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Simulate(context.Background(), sys, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdmissionDecision gates the admission controller's hot path:
// Decide reads one atomic model snapshot and must never solve inline or
// allocate — every job submission pays this cost before the scheduler is
// consulted. The solver-call counter pins solve-freedom; the CI benchjson
// gate pins 0 allocs/op (-zeroalloc).
func BenchmarkAdmissionDecision(b *testing.B) {
	var solves atomic.Int64
	now := time.Unix(1_700_000_000, 0)
	flow := admission.Flow{Busy: 1, Servers: 2}
	ctl := admission.New(admission.Config{
		Sample: func() admission.Flow { return flow },
		Evaluate: func(ctx context.Context, sys core.System, m core.Method) (*core.Performance, error) {
			solves.Add(1)
			return &core.Performance{MeanJobs: 2, MeanResponse: 1}, nil
		},
		Interval: -1,
		Now:      func() time.Time { return now },
	})
	if err := ctl.Refit(context.Background()); err != nil {
		b.Fatal(err)
	}
	now = now.Add(10 * time.Second)
	flow = admission.Flow{Arrivals: 5, Completions: 10, Busy: 1, Servers: 2, Backlog: 10}
	if err := ctl.Refit(context.Background()); err != nil {
		b.Fatal(err)
	}
	if ctl.Snapshot() == nil {
		b.Fatal("no model published")
	}
	fitted := solves.Load()
	b.ReportAllocs()
	b.ResetTimer()
	// Backlogs sweep 0..63 so both branches (admit and shed-with-hint)
	// are exercised every 64 iterations.
	for i := 0; i < b.N; i++ {
		_ = ctl.Decide(i & 63)
	}
	b.StopTimer()
	if got := solves.Load(); got != fitted {
		b.Fatalf("Decide ran %d inline solves; the hot path must never solve", got-fitted)
	}
}

// BenchmarkSpanRecord gates the tracing record path: StartLeaf/Set/End is
// what every instrumented seam (HTTP request, store append, solver call)
// pays per operation, so it must recycle spans through the pool and never
// allocate. The CI benchjson gate pins 0 allocs/op (-zeroalloc).
func BenchmarkSpanRecord(b *testing.B) {
	tr := trace.New(trace.Config{Node: "bench"})
	root, ctx := tr.StartRoot(context.Background(), "mus.http.request", trace.SpanContext{})
	defer root.End()
	// Warm the span pool outside the timer so steady state is measured.
	for i := 0; i < 100; i++ {
		sp := trace.StartLeaf(ctx, "mus.engine.solve")
		sp.Set(trace.Int("servers", 12))
		sp.End()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := trace.StartLeaf(ctx, "mus.engine.solve")
		sp.Set(trace.Int("servers", 12))
		sp.Set(trace.Float("lambda", 8))
		sp.End()
	}
}
