package core

import (
	"math"
	"testing"

	"repro/internal/dist"
)

var (
	paperOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	paperRepair = dist.Exp(25)
)

// fig5System is the paper's Figure 5/8/9 configuration.
func fig5System(n int, lambda float64) System {
	return System{
		Servers:     n,
		ArrivalRate: lambda,
		ServiceRate: 1,
		Operative:   paperOps,
		Repair:      paperRepair,
	}
}

func TestValidate(t *testing.T) {
	if err := fig5System(10, 8).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sys  System
	}{
		{"zero servers", System{Servers: 0, ArrivalRate: 1, ServiceRate: 1, Operative: paperOps, Repair: paperRepair}},
		{"zero lambda", System{Servers: 1, ArrivalRate: 0, ServiceRate: 1, Operative: paperOps, Repair: paperRepair}},
		{"zero mu", System{Servers: 1, ArrivalRate: 1, ServiceRate: 0, Operative: paperOps, Repair: paperRepair}},
		{"nil dists", System{Servers: 1, ArrivalRate: 1, ServiceRate: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.sys.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestStabilityFormula(t *testing.T) {
	// eq. (11): λ/µ < N·η/(ξ+η). With the fitted parameters the availability
	// is ≈ 0.99303 wait — η=25, ξ=0.0289: η/(ξ+η) ≈ 0.99885. N=10 ⇒ capacity
	// ≈ 9.9885, so λ = 9.9 is stable and λ = 10 is not.
	if s := fig5System(10, 9.9); !s.Stable() {
		t.Errorf("λ=9.9 load %v, should be stable", s.Load())
	}
	if s := fig5System(10, 10); s.Stable() {
		t.Errorf("λ=10 load %v, should be unstable", s.Load())
	}
}

func TestAvailabilityValue(t *testing.T) {
	s := fig5System(10, 8)
	xi := paperOps.Rate()
	want := 25.0 / (xi + 25.0)
	if got := s.Availability(); math.Abs(got-want) > 1e-12 {
		t.Errorf("availability %v, want %v", got, want)
	}
}

func TestModesFormula(t *testing.T) {
	// s = (N+2)(N+1)/2 for n=2, m=1 (paper §4).
	for _, n := range []int{2, 5, 10} {
		want := (n + 2) * (n + 1) / 2
		if got := fig5System(n, 1).Modes(); got != want {
			t.Errorf("N=%d: modes %d, want %d", n, got, want)
		}
	}
}

func TestSolveConsistencyAcrossMethods(t *testing.T) {
	s := fig5System(5, 3.5)
	exact, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := s.SolveMatrixGeometric()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(exact.MeanJobs - mg.MeanJobs); d > 1e-7 {
		t.Errorf("L spectral %v vs MG %v", exact.MeanJobs, mg.MeanJobs)
	}
	// W = L/λ by construction.
	if d := math.Abs(exact.MeanResponse - exact.MeanJobs/3.5); d > 1e-12 {
		t.Errorf("Little's law broken: %v", d)
	}
}

func TestPerformanceAccessors(t *testing.T) {
	s := fig5System(3, 2)
	perf, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for j := 0; j < 400; j++ {
		sum += perf.QueueProb(j)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("queue distribution sums to %v", sum)
	}
	if tp := perf.QueueTail(0); math.Abs(tp-1) > 1e-9 {
		t.Errorf("QueueTail(0) = %v", tp)
	}
	if perf.QueueTail(5) > perf.QueueTail(4) {
		t.Error("QueueTail must be non-increasing")
	}
	if mm := perf.ModeMarginals(); len(mm) != s.Modes() {
		t.Errorf("mode marginals length %d, want %d", len(mm), s.Modes())
	}
	if perf.Solution() == nil {
		t.Error("Solution() must expose the solver output")
	}
	if perf.TailDecay <= 0 || perf.TailDecay >= 1 {
		t.Errorf("tail decay %v", perf.TailDecay)
	}
	if math.Abs(perf.Load-s.Load()) > 1e-12 {
		t.Errorf("Load field %v vs %v", perf.Load, s.Load())
	}
	ss := perf.SteadyState()
	if ss == perf || ss.Solution() != nil {
		t.Error("SteadyState must be a new value without the solution")
	}
	if ss.MeanJobs != perf.MeanJobs || ss.MeanResponse != perf.MeanResponse ||
		ss.TailDecay != perf.TailDecay || ss.Load != perf.Load {
		t.Errorf("SteadyState %+v does not carry the exported fields of %+v", ss, perf)
	}
}

func TestOperativeBreakdown(t *testing.T) {
	// Slow repairs so "servers down" states carry real probability.
	s := System{
		Servers:     3,
		ArrivalRate: 1.8,
		ServiceRate: 1,
		Operative:   paperOps,
		Repair:      dist.Exp(0.2),
	}
	perf, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	bd := perf.OperativeBreakdown()
	if len(bd) != 4 {
		t.Fatalf("breakdown has %d entries, want N+1 = 4", len(bd))
	}
	var totalProb, meanOperative float64
	for x, st := range bd {
		if st.Operative != x {
			t.Errorf("entry %d labelled %d", x, st.Operative)
		}
		if st.Prob < -1e-12 || st.Prob > 1 {
			t.Errorf("P(%d operative) = %v", x, st.Prob)
		}
		totalProb += st.Prob
		meanOperative += float64(x) * st.Prob
	}
	if math.Abs(totalProb-1) > 1e-9 {
		t.Errorf("operative probabilities sum to %v", totalProb)
	}
	// Σ x·P(x) = N·availability.
	if want := 3 * s.Availability(); math.Abs(meanOperative-want) > 1e-9 {
		t.Errorf("mean operative %v, want %v", meanOperative, want)
	}
	// Conditional queue grows as servers fail (fewer operative ⇒ more queue).
	for x := 1; x < len(bd); x++ {
		if math.IsNaN(bd[x-1].MeanQueue) || math.IsNaN(bd[x].MeanQueue) {
			continue
		}
		if bd[x-1].MeanQueue < bd[x].MeanQueue {
			t.Errorf("E[Z | %d operative] = %v below E[Z | %d operative] = %v",
				x-1, bd[x-1].MeanQueue, x, bd[x].MeanQueue)
		}
	}
	// Law of total expectation: Σ P(x)·E[Z|x] = L.
	var l float64
	for _, st := range bd {
		if !math.IsNaN(st.MeanQueue) {
			l += st.Prob * st.MeanQueue
		}
	}
	if rel := math.Abs(l-perf.MeanJobs) / perf.MeanJobs; rel > 1e-6 {
		t.Errorf("Σ P(x)E[Z|x] = %v, L = %v", l, perf.MeanJobs)
	}
}

func TestSolveWithDispatch(t *testing.T) {
	s := fig5System(3, 2)
	for _, m := range []Method{Spectral, Approximation, MatrixGeometric} {
		perf, err := s.SolveWith(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if perf.MeanJobs <= 0 {
			t.Errorf("%v: L = %v", m, perf.MeanJobs)
		}
	}
	if _, err := s.SolveWith(Method(99)); err == nil {
		t.Error("unknown method should fail")
	}
	if Method(99).String() == "" || Spectral.String() != "spectral" {
		t.Error("method names wrong")
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{HoldingCost: 4, ServerCost: 1}
	if c := cm.Cost(10, 12); c != 52 {
		t.Errorf("cost = %v, want 52", c)
	}
}

func TestOptimizeServersMatchesPaperFigure5(t *testing.T) {
	// Paper Figure 5 (c₁=4, c₂=1): the optimal N is 11 for λ=7, 12 for λ=8
	// and 13 for λ=8.5.
	cm := CostModel{HoldingCost: 4, ServerCost: 1}
	cases := []struct {
		lambda float64
		wantN  int
	}{
		{7.0, 11},
		{8.0, 12},
		{8.5, 13},
	}
	for _, c := range cases {
		best, err := OptimizeServers(fig5System(0, c.lambda), cm, 9, 17, Spectral)
		if err != nil {
			t.Fatalf("λ=%v: %v", c.lambda, err)
		}
		if best.Servers != c.wantN {
			t.Errorf("λ=%v: optimal N = %d (cost %v), paper says %d",
				c.lambda, best.Servers, best.Cost, c.wantN)
		}
	}
}

func TestMinServersForResponseTimeMatchesPaperFigure9(t *testing.T) {
	// Paper Figure 9 discussion: for λ = 7.5 and W ≤ 1.5, at least 9 servers.
	pt, err := MinServersForResponseTime(fig5System(0, 7.5), 1.5, 20, Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Servers != 9 {
		t.Errorf("min N = %d (W = %v), paper says 9", pt.Servers, pt.Perf.MeanResponse)
	}
}

func TestMinServersForResponseTimeErrors(t *testing.T) {
	if _, err := MinServersForResponseTime(fig5System(0, 7.5), -1, 20, Spectral); err == nil {
		t.Error("negative target should fail")
	}
	// Impossible target: W can never beat 1/µ = 1.
	if _, err := MinServersForResponseTime(fig5System(0, 7.5), 0.5, 12, Spectral); err == nil {
		t.Error("unreachable target should fail")
	}
}

func TestMinServersForStability(t *testing.T) {
	s := fig5System(0, 8)
	n, err := MinServersForStability(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Servers = n
	if !s.Stable() {
		t.Errorf("N = %d not stable", n)
	}
	s.Servers = n - 1
	if s.Stable() {
		t.Errorf("N = %d already stable; MinServersForStability not minimal", n-1)
	}
}

func TestSimulateAgreesWithSolve(t *testing.T) {
	s := fig5System(3, 1.8)
	perf, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate(SimOptions{Seed: 11, Warmup: 5000, Horizon: 250000})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.MeanQueue-perf.MeanJobs) / perf.MeanJobs; rel > 0.1 {
		t.Errorf("sim L %v vs exact %v (rel %v)", res.MeanQueue, perf.MeanJobs, rel)
	}
}

func TestSimulateOverrideDistributions(t *testing.T) {
	// Override with deterministic operative periods (C²=0): must run fine.
	s := fig5System(3, 1.5)
	res, err := s.Simulate(SimOptions{
		Seed:      12,
		Warmup:    500,
		Horizon:   20000,
		Operative: dist.Deterministic{Value: paperOps.Mean()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanQueue <= 0 {
		t.Errorf("L = %v", res.MeanQueue)
	}
}
