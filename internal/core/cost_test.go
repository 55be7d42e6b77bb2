package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/qbd"
)

// TestMinServersForStabilityDegenerate pins the validation contract: every
// input whose eq.-11 quotient would be Inf or NaN must fail loudly instead
// of returning ⌈NaN⌉ garbage.
func TestMinServersForStabilityDegenerate(t *testing.T) {
	op := dist.MustHyperExp([]float64{1}, []float64{0.02})
	rep := dist.Exp(25)
	cases := []struct {
		name string
		sys  System
	}{
		{"zero arrival rate", System{ArrivalRate: 0, ServiceRate: 1, Operative: op, Repair: rep}},
		{"negative arrival rate", System{ArrivalRate: -3, ServiceRate: 1, Operative: op, Repair: rep}},
		{"NaN arrival rate", System{ArrivalRate: math.NaN(), ServiceRate: 1, Operative: op, Repair: rep}},
		{"infinite arrival rate", System{ArrivalRate: math.Inf(1), ServiceRate: 1, Operative: op, Repair: rep}},
		{"zero service rate", System{ArrivalRate: 5, ServiceRate: 0, Operative: op, Repair: rep}},
		{"negative service rate", System{ArrivalRate: 5, ServiceRate: -1, Operative: op, Repair: rep}},
		{"NaN service rate", System{ArrivalRate: 5, ServiceRate: math.NaN(), Operative: op, Repair: rep}},
		{"nil distributions", System{ArrivalRate: 5, ServiceRate: 1}},
		{"zero repair rate", System{ArrivalRate: 5, ServiceRate: 1, Operative: op,
			Repair: &dist.HyperExp{Weights: []float64{1}, Rates: []float64{0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := MinServersForStability(tc.sys)
			if err == nil {
				t.Fatalf("MinServersForStability = %d, want error", n)
			}
		})
	}
}

// TestMinServersForStabilityValid exercises a healthy configuration end to
// end through the new error-returning signature.
func TestMinServersForStabilityValid(t *testing.T) {
	sys := System{
		ArrivalRate: 7.5,
		ServiceRate: 1,
		Operative:   dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091}),
		Repair:      dist.Exp(25),
	}
	n, err := MinServersForStability(sys)
	if err != nil {
		t.Fatal(err)
	}
	sys.Servers = n
	if !sys.Stable() {
		t.Errorf("N = %d not stable", n)
	}
	sys.Servers = n - 1
	if sys.Stable() {
		t.Errorf("N = %d already stable; result not minimal", n-1)
	}
}

// plateauBase is a nearly perfectly available system that is stable for
// every N ≥ 1, so a synthetic cost curve is scanned without stability skips.
// Its λ/µ is 0.5, the floor every exact-method L keeps.
func plateauBase() System {
	return System{
		ArrivalRate: 0.5,
		ServiceRate: 1,
		Operative:   dist.Exp(1e-6),
		Repair:      dist.Exp(1),
	}
}

// curveEvaluator serves L = curve[N−1] for plateauBase and counts the
// systems it is asked to solve.
func curveEvaluator(curve []float64, solves *int) Evaluator {
	return func(systems []System, m Method) ([]*Performance, []error) {
		perfs := make([]*Performance, len(systems))
		for i, sys := range systems {
			*solves++
			l := curve[sys.Servers-1]
			perfs[i] = &Performance{MeanJobs: l, MeanResponse: l / sys.ArrivalRate}
		}
		return perfs, make([]error, len(systems))
	}
}

// TestProvisionNonUnimodalCost feeds the search cost curves that are not
// unimodal but keep L ≥ λ/µ. On the dip curve C = L + N falls to 8 at
// N = 2, rises three times, then dips to 6.6 at N = 6: a search that stops
// after three rises answers N = 2, and the bound-pruned search must find
// N = 6 at every wave width. On the descending curve C = L falls to the
// end of the range and the bound (c₂ = 0) never rises, so the search must
// solve the whole range and return its end point. Past the optimum the
// search solves nothing whose bound c₁·λ/µ + c₂·N already reaches the
// best cost.
func TestProvisionNonUnimodalCost(t *testing.T) {
	dip := []float64{9, 6, 5.5, 5, 4.5, 0.6, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	descending := []float64{11.5, 10.5, 9.5, 8.5, 7.5, 6.5, 5.5, 4.5, 3.5, 2.5, 1.5, 0.5}
	for _, tc := range []struct {
		name  string
		curve []float64
		cm    CostModel
		wantN int
	}{
		{"dip", dip, CostModel{HoldingCost: 1, ServerCost: 1}, 6},
		{"descending", descending, CostModel{HoldingCost: 1}, 12},
	} {
		for width := 1; width <= 4; width++ {
			solves := 0
			best, err := Provision(plateauBase(), Objective{Cost: tc.cm}, 1, len(tc.curve), Spectral, width, curveEvaluator(tc.curve, &solves))
			if err != nil {
				t.Fatalf("%s, width %d: %v", tc.name, width, err)
			}
			if best.Servers != tc.wantN || best.Cost != tc.cm.Cost(tc.curve[tc.wantN-1], tc.wantN) {
				t.Errorf("%s, width %d: best N = %d (cost %v), want N = %d", tc.name, width, best.Servers, best.Cost, tc.wantN)
			}
			// Past the optimum, the first N whose bound reaches its cost
			// caps the solves, one wave of slack aside.
			limit := tc.wantN
			for limit < len(tc.curve) && tc.cm.Cost(0.5, limit+1) < best.Cost {
				limit++
			}
			if solves > limit+width-1 {
				t.Errorf("%s, width %d: %d solves, want ≤ %d", tc.name, width, solves, limit+width-1)
			}
		}
	}
}

// TestProvisionAtStabilityBoundary pins λ one ulp below eq. 11's 8·A for
// the Sun model. N = 8 is unstable there by the one rule core and the
// solvers share, so MinServersForStability says 9, and both modes answer
// from N = 9 up without solving N = 8.
func TestProvisionAtStabilityBoundary(t *testing.T) {
	base := fig5System(0, 1)
	base.ArrivalRate = math.Nextafter(8*base.Availability(), 0)
	if base.ArrivalRate != 7.9907677008900535 {
		t.Fatalf("λ = %.17g, want 7.9907677008900535", base.ArrivalRate)
	}
	boundary := base
	boundary.Servers = 8
	if _, err := boundary.Solve(); boundary.Stable() || !errors.Is(err, qbd.ErrUnstable) {
		t.Fatalf("N = 8: Stable() = %v and solve error %v, want unstable by both", boundary.Stable(), err)
	}
	if n, err := MinServersForStability(base); n != 9 || err != nil {
		t.Fatalf("MinServersForStability = %d, %v; want 9", n, err)
	}
	var solved []int
	eval := func(systems []System, m Method) ([]*Performance, []error) {
		for _, sys := range systems {
			solved = append(solved, sys.Servers)
		}
		return solveEach(systems, m)
	}
	best, err := Provision(base, Objective{Cost: CostModel{HoldingCost: 1, ServerCost: 1}}, 1, 20, Spectral, 1, eval)
	if err != nil {
		t.Fatal(err)
	}
	if best.Servers < 9 || best.Perf == nil {
		t.Errorf("cost mode answered N = %d (perf %v)", best.Servers, best.Perf)
	}
	pt, err := Provision(base, Objective{Target: 2}, 1, 20, Spectral, 4, eval)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Servers < 9 || pt.Perf.MeanResponse > 2 {
		t.Errorf("SLA mode answered N = %d with W = %v", pt.Servers, pt.Perf.MeanResponse)
	}
	if slices.Min(solved) != 9 {
		t.Errorf("solved N = %v, want 9 first", solved)
	}
}

// TestProvisionMatchesExhaustiveProperty checks the search against a
// test-local exhaustive search on seeded random systems: exponential and
// H2 operative and repair periods, random µ, loads 1e-4 to 0.99, ranges
// inside [1, 20], the spectral and approximate methods, and wave widths
// 1–4. Both searches read one memo of solves, so they see the same
// numbers.
//   - Cost mode (c₁, c₂ ≥ 0, not both 0) must return the exhaustive N,
//     unless the two optima's costs agree to 1e-12 relative: at light
//     loads a computed L can sit ~1e-12 relative below λ/µ, so the bound
//     may prune an N whose computed cost ties the optimum's.
//   - SLA mode must return the exhaustive N for targets above 1/µ, and
//     unsatisfiable for an exact-method target ≤ 1/µ.
func TestProvisionMatchesExhaustiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	period := func(lo, hi float64) *dist.HyperExp {
		if rng.Intn(2) == 0 {
			return dist.Exp(logU(lo, hi))
		}
		w := 0.05 + 0.9*rng.Float64()
		return dist.MustHyperExp([]float64{w, 1 - w}, []float64{logU(lo, hi), logU(lo, hi)})
	}
	weight := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return logU(0.1, 10)
	}
	const draws = 100
	for d := 0; d < draws; d++ {
		base := System{ServiceRate: logU(0.2, 5), Operative: period(0.005, 0.5), Repair: period(0.5, 50)}
		top := 20
		if base.Operative.Phases()+base.Repair.Phases() == 4 {
			top = 8 // s = C(N+3, 3) modes: keep the exhaustive search quick
		}
		hi := 1 + rng.Intn(top)
		lo := 1 + rng.Intn(hi)
		n0 := 1 + rng.Intn(hi)
		load := logU(1e-4, 0.99)
		base.ArrivalRate = load * float64(n0) * base.ServiceRate * base.Availability()
		m := []Method{Spectral, Approximation}[rng.Intn(2)]
		width := 1 + rng.Intn(4)
		name := fmt.Sprintf("draw %d (N ∈ [%d, %d], load %.3g at N = %d, µ = %.3g, %v, width %d)", d, lo, hi, load, n0, base.ServiceRate, m, width)

		memo := map[int]ServerSweepPoint{}
		solve := func(n int) (*Performance, error) {
			if pt, ok := memo[n]; ok {
				return pt.Perf, nil
			}
			sys := base
			sys.Servers = n
			perf, err := sys.SolveWith(m)
			if err == nil {
				memo[n] = ServerSweepPoint{Servers: n, Perf: perf}
			}
			return perf, err
		}
		eval := func(systems []System, m Method) ([]*Performance, []error) {
			perfs, errs := make([]*Performance, len(systems)), make([]error, len(systems))
			for i, sys := range systems {
				perfs[i], errs[i] = solve(sys.Servers)
			}
			return perfs, errs
		}
		// exhaustive visits every stable N in [lo, hi] in order.
		exhaustive := func(visit func(n int, perf *Performance) bool) {
			for n := lo; n <= hi; n++ {
				sys := base
				sys.Servers = n
				if !sys.Stable() {
					continue
				}
				perf, err := solve(n)
				if err != nil {
					t.Fatalf("%s: N = %d: %v", name, n, err)
				}
				if visit(n, perf) {
					return
				}
			}
		}

		cm := CostModel{HoldingCost: weight(), ServerCost: weight()}
		if cm.HoldingCost == 0 && cm.ServerCost == 0 {
			cm.HoldingCost = 1
		}
		var want ServerSweepPoint
		exhaustive(func(n int, perf *Performance) bool {
			if c := cm.Cost(perf.MeanJobs, n); want.Perf == nil || c < want.Cost {
				want = ServerSweepPoint{Servers: n, Perf: perf, Cost: c}
			}
			return false
		})
		got, err := Provision(base, Objective{Cost: cm}, lo, hi, m, width, eval)
		switch {
		case want.Perf == nil:
			if err == nil {
				t.Errorf("%s, c = %+v: search answered N = %d where no N is stable", name, cm, got.Servers)
			}
		case err != nil:
			t.Errorf("%s, c = %+v: %v, want N = %d", name, cm, err, want.Servers)
		case got.Servers != want.Servers && math.Abs(got.Cost-want.Cost) > 1e-12*want.Cost:
			t.Errorf("%s, c = %+v: N = %d (cost %.17g), exhaustive N = %d (cost %.17g)",
				name, cm, got.Servers, got.Cost, want.Servers, want.Cost)
		}

		// Targets: at or below 1/µ, just above a W the range reaches, and
		// loose enough for any stable N.
		floor := 1 / base.ServiceRate
		targets := []float64{floor * (0.5 + 0.5*rng.Float64()), 1e3 * floor}
		if len(memo) > 0 {
			ns := make([]int, 0, len(memo))
			for n := range memo {
				ns = append(ns, n)
			}
			sort.Ints(ns)
			w := memo[ns[rng.Intn(len(ns))]].Perf.MeanResponse
			targets = append(targets, floor+(w-floor)*(0.5+rng.Float64()))
		}
		for _, target := range targets {
			var want *ServerSweepPoint
			exhaustive(func(n int, perf *Performance) bool {
				if perf.MeanResponse <= target {
					want = &ServerSweepPoint{Servers: n, Perf: perf}
				}
				return want != nil
			})
			got, err := Provision(base, Objective{Target: target}, lo, hi, m, width, eval)
			switch {
			case m != Approximation && target <= floor:
				if err == nil {
					t.Errorf("%s, target %v ≤ 1/µ: answered N = %d, want unsatisfiable", name, target, got.Servers)
				}
			case want == nil:
				if err == nil {
					t.Errorf("%s, target %v: answered N = %d, exhaustive finds none", name, target, got.Servers)
				}
			case err != nil || got.Servers != want.Servers:
				t.Errorf("%s, target %v: N = %d (%v), exhaustive N = %d", name, target, got.Servers, err, want.Servers)
			}
		}
	}
}
