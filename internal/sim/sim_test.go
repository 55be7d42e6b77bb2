package sim

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/markov"
	"repro/internal/qbd"
)

var (
	paperOps    = dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091})
	paperRepair = dist.Exp(25)
)

func TestRunValidation(t *testing.T) {
	valid := Config{Servers: 1, Lambda: 1, Mu: 2, Operative: dist.Exp(1), Repair: dist.Exp(1), Horizon: 10}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"zero lambda", func(c *Config) { c.Lambda = 0 }},
		{"zero mu", func(c *Config) { c.Mu = 0 }},
		{"nil operative", func(c *Config) { c.Operative = nil }},
		{"nil repair", func(c *Config) { c.Repair = nil }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"one batch", func(c *Config) { c.Batches = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := valid
			c.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := Run(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMM1NoBreakdowns(t *testing.T) {
	// Practically reliable server: M/M/1 with ρ = 0.7, L = ρ/(1−ρ) = 7/3.
	cfg := Config{
		Servers:   1,
		Lambda:    0.7,
		Mu:        1,
		Operative: dist.Exp(1e-9),
		Repair:    dist.Exp(1e3),
		Warmup:    2000,
		Horizon:   300000,
		Seed:      1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.7 / 0.3
	if math.Abs(res.MeanQueue-want) > 0.1 {
		t.Errorf("L = %v ± %v, M/M/1 gives %v", res.MeanQueue, res.MeanQueueHalfWidth, want)
	}
	// Little's law: W = L/λ.
	if math.Abs(res.MeanResponse-res.MeanQueue/cfg.Lambda) > 0.15 {
		t.Errorf("Little violated: W = %v, L/λ = %v", res.MeanResponse, res.MeanQueue/cfg.Lambda)
	}
	if res.Availability < 0.9999 {
		t.Errorf("availability = %v, want ≈1", res.Availability)
	}
}

func TestAvailabilityMatchesTheory(t *testing.T) {
	// Availability = η/(ξ+η) regardless of distribution shapes (paper §3).
	cfg := Config{
		Servers:   5,
		Lambda:    0.5, // light load; availability is load-independent anyway
		Mu:        1,
		Operative: paperOps,
		Repair:    paperRepair,
		Warmup:    5000,
		Horizon:   200000,
		Seed:      2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xi, eta := paperOps.Rate(), paperRepair.Rate()
	want := eta / (xi + eta)
	if math.Abs(res.Availability-want) > 0.01 {
		t.Errorf("availability = %v, theory %v", res.Availability, want)
	}
}

// spectralParams builds the queue of n servers with operative periods op
// and repairs rep, described by one server as the spectral solver takes
// it.
func spectralParams(n int, op, rep *dist.HyperExp, lambda, mu float64) qbd.Params {
	d := &qbd.Servers{G: markov.ServerRates(op, rep), Rates: markov.PhaseServiceRates(op, rep, mu), N: n}
	return qbd.Params{
		Lambda:      lambda,
		ServiceDiag: markov.ServiceDiag(markov.Operative(d.Modes(), op.Phases()), n, mu),
		Servers:     d,
	}
}

func TestSimulationMatchesSpectralExponential(t *testing.T) {
	// Exponential operative periods: simulator vs exact solver.
	op := dist.Exp(0.0289)
	rep := dist.Exp(0.2)
	n, lambda, mu := 4, 2.8, 1.0
	sol, err := qbd.SolveSpectral(spectralParams(n, op, rep, lambda, mu))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Servers: n, Lambda: lambda, Mu: mu,
		Operative: op, Repair: rep,
		Warmup: 10000, Horizon: 400000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sol.MeanQueue()
	if rel := math.Abs(res.MeanQueue-want) / want; rel > 0.08 {
		t.Errorf("sim L = %v ± %v, exact %v (rel %v)", res.MeanQueue, res.MeanQueueHalfWidth, want, rel)
	}
}

func TestSimulationMatchesSpectralHyperexponential(t *testing.T) {
	// The paper's fitted H2 operative periods: the simulator must agree with
	// the spectral expansion, validating both.
	n, lambda, mu := 3, 1.8, 1.0
	sol, err := qbd.SolveSpectral(spectralParams(n, paperOps, paperRepair, lambda, mu))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Servers: n, Lambda: lambda, Mu: mu,
		Operative: paperOps, Repair: paperRepair,
		Warmup: 10000, Horizon: 400000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sol.MeanQueue()
	if rel := math.Abs(res.MeanQueue-want) / want; rel > 0.08 {
		t.Errorf("sim L = %v ± %v, exact %v (rel %v)", res.MeanQueue, res.MeanQueueHalfWidth, want, rel)
	}
	// Queue-length distribution head should match too.
	for j := 0; j <= 5; j++ {
		if d := math.Abs(res.QueueDist[j] - sol.LevelProb(j)); d > 0.02 {
			t.Errorf("P(%d): sim %v vs exact %v", j, res.QueueDist[j], sol.LevelProb(j))
		}
	}
}

func TestDeterministicOperativePeriodsRun(t *testing.T) {
	// The Figure 6 C²=0 scenario must run and produce a smaller L than the
	// exponential (C²=1) case with the same mean.
	base := Config{
		Servers: 10, Lambda: 8.5, Mu: 1,
		Repair: dist.Exp(0.2),
		Warmup: 5000, Horizon: 150000, Seed: 5,
	}
	det := base
	det.Operative = dist.Deterministic{Value: 34.62}
	exp := base
	exp.Operative = dist.Exp(1 / 34.62)
	rDet, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	rExp, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if rDet.MeanQueue >= rExp.MeanQueue {
		t.Errorf("L(C²=0) = %v should be below L(C²=1) = %v", rDet.MeanQueue, rExp.MeanQueue)
	}
}

func TestQueueDistSumsToOne(t *testing.T) {
	res, err := Run(Config{
		Servers: 2, Lambda: 1, Mu: 1,
		Operative: paperOps, Repair: paperRepair,
		Warmup: 100, Horizon: 50000, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.QueueDist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("queue distribution sums to %v", sum)
	}
}

func TestReproducibleWithSeed(t *testing.T) {
	cfg := Config{
		Servers: 2, Lambda: 1, Mu: 1,
		Operative: paperOps, Repair: paperRepair,
		Warmup: 10, Horizon: 5000, Seed: 7,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanQueue != b.MeanQueue || a.Completed != b.Completed {
		t.Error("same seed must reproduce identical results")
	}
}

func TestHeapOrdering(t *testing.T) {
	var h eventHeap
	for _, x := range []float64{5, 1, 4, 2, 3, 0.5, 6} {
		h.push(event{t: x})
	}
	prev := math.Inf(-1)
	for h.len() > 0 {
		e, ok := h.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if e.t < prev {
			t.Fatalf("heap order violated: %v after %v", e.t, prev)
		}
		prev = e.t
	}
	if _, ok := h.pop(); ok {
		t.Error("pop from empty heap should fail")
	}
}

func TestJobDeque(t *testing.T) {
	var d jobDeque
	if _, ok := d.popFront(); ok {
		t.Fatal("pop from empty deque should fail")
	}
	for i := 0; i < 10; i++ {
		d.pushBack(job{arrival: float64(i)})
	}
	d.pushFront(job{arrival: -1})
	if d.len() != 11 {
		t.Fatalf("len = %d", d.len())
	}
	j, _ := d.popFront()
	if j.arrival != -1 {
		t.Fatalf("front = %v, want -1 (preempted job goes first)", j.arrival)
	}
	for i := 0; i < 10; i++ {
		j, ok := d.popFront()
		if !ok || j.arrival != float64(i) {
			t.Fatalf("FIFO order broken at %d: %v", i, j.arrival)
		}
	}
}
