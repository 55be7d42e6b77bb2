package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/qbd"
)

// stabilitySystem is one model the stability tests sweep over N = 1..maxN.
type stabilitySystem struct {
	name string
	sys  System
	maxN int
}

// stabilitySystems returns the Sun model and seeded H2 and H3 systems,
// each swept to N = 64: qbd's Params.Load reads one server's k×k π, so
// the four-phase models' 47905 modes at N = 64 cost only their
// enumeration and service diagonals in System.Params.
func stabilitySystems() []stabilitySystem {
	rng := rand.New(rand.NewSource(2506))
	draw := func(phases int, scale float64) *dist.HyperExp {
		w, r := make([]float64, phases), make([]float64, phases)
		var sum float64
		for i := range w {
			w[i] = 0.05 + rng.Float64()
			r[i] = scale * math.Exp(rng.NormFloat64())
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		return dist.MustHyperExp(w, r)
	}
	system := func(op, rep *dist.HyperExp) System {
		return System{ServiceRate: 0.5 + rng.Float64(), Operative: op, Repair: rep}
	}
	return []stabilitySystem{
		{"sun", fig5System(0, 1), 64},
		{"H2/exp", system(draw(2, 0.05), draw(1, 2)), 64},
		{"exp/H2", system(draw(1, 0.05), draw(2, 2)), 64},
		{"H3/exp", system(draw(3, 0.05), draw(1, 2)), 64},
		{"H2/H2", system(draw(2, 0.05), draw(2, 2)), 64},
	}
}

// TestOneStabilityRule: core and qbd draw the stability boundary at one λ.
// On every stabilitySystems model and N, for every λ within 3 ulps of
// eq. 11's closed-form capacity N·µ·η/(ξ+η) or of the capacity that qbd's
// Params.Load implies, System.Stable must give Params.CheckStable's
// verdict, and MinServersForStability must be the smallest N that Stable
// accepts. It compares verdicts, not solves: just below capacity lies a
// band where the factored stage cannot bracket the Perron root.
func TestOneStabilityRule(t *testing.T) {
	for _, m := range stabilitySystems() {
		for n := 1; n <= m.maxN; n++ {
			sys := m.sys
			sys.Servers = n
			sys.ArrivalRate = 1
			p, err := sys.Params()
			if err != nil {
				t.Fatalf("%s N=%d: %v", m.name, n, err)
			}
			load, err := p.Load()
			if err != nil {
				t.Fatalf("%s N=%d: %v", m.name, n, err)
			}
			checked := map[float64]bool{}
			for _, centre := range []float64{float64(n) * sys.ServiceRate * sys.Availability(), 1 / load} {
				lambda := centre
				for range 3 {
					lambda = math.Nextafter(lambda, 0)
				}
				for range 7 {
					if !checked[lambda] {
						checked[lambda] = true
						sys.ArrivalRate, p.Lambda = lambda, lambda
						checkOneRule(t, m.name, sys, p.CheckStable() == nil)
					}
					lambda = math.Nextafter(lambda, math.Inf(1))
				}
			}
		}
	}
}

// checkOneRule checks sys against qbd's verdict on it.
func checkOneRule(t *testing.T, name string, sys System, qbdStable bool) {
	t.Helper()
	n, lambda := sys.Servers, sys.ArrivalRate
	if got := sys.Stable(); got != qbdStable {
		t.Fatalf("%s N=%d λ=%.17g: Stable() = %v, qbd's CheckStable says %v", name, n, lambda, got, qbdStable)
	}
	lo, err := MinServersForStability(sys)
	if err != nil {
		t.Fatalf("%s N=%d λ=%.17g: %v", name, n, lambda, err)
	}
	if lo != n && lo != n+1 {
		t.Fatalf("%s N=%d λ=%.17g: MinServersForStability = %d, want %d or %d", name, n, lambda, lo, n, n+1)
	}
	probe := sys
	probe.Servers = lo
	if !probe.Stable() {
		t.Fatalf("%s λ=%.17g: MinServersForStability = %d, which Stable rejects", name, lambda, lo)
	}
	probe.Servers = lo - 1
	if lo > 1 && probe.Stable() {
		t.Fatalf("%s λ=%.17g: MinServersForStability = %d, but Stable accepts %d", name, lambda, lo, lo-1)
	}
}

// TestLoadMatchesClosedForm: System.Load, λ over qbd's capacity, agrees
// with eq. 11's closed form λ/(N·µ·η/(ξ+η)) to 1e-14 relative on every
// stabilitySystems model at N = 1..64.
func TestLoadMatchesClosedForm(t *testing.T) {
	var worst float64
	for _, m := range stabilitySystems() {
		for n := 1; n <= 64; n++ {
			sys := m.sys
			sys.Servers = n
			sys.ArrivalRate = 0.7 * float64(n)
			want := sys.ArrivalRate / (float64(n) * sys.ServiceRate * sys.Availability())
			d := math.Abs(sys.Load()-want) / want
			if d > 1e-14 {
				t.Errorf("%s N=%d: Load = %v, closed form %v (rel %.1e)", m.name, n, sys.Load(), want, d)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("largest relative difference: %.1e", worst)
}

// TestStabilityPastModeBound: qbd indexes at most math.MaxInt32 modes,
// which on the Sun model (3 phases) means N ≤ 65534. The bound is
// Params', not the stability rule's: past it, Capacity is still N times
// one server's and MinServersForStability still returns eq. 11's N, and
// a stable system's Params and Solve report the bound instead of calling
// the system unstable.
func TestStabilityPastModeBound(t *testing.T) {
	const bound = 65535 // the least N with C(N+2, 2) > math.MaxInt32
	if qbd.NumModes(bound-1, 3) > math.MaxInt32 || qbd.NumModes(bound, 3) <= math.MaxInt32 {
		t.Fatalf("NumModes(%d, 3) = %d, NumModes(%d, 3) = %d: the bound has moved", bound-1, qbd.NumModes(bound-1, 3), bound, qbd.NumModes(bound, 3))
	}
	one := fig5System(1, 1).Capacity()
	for _, n := range []int{bound - 1, bound, 70000} {
		if got, want := fig5System(n, 1).Capacity(), float64(n)*one; got != want {
			t.Errorf("N=%d: Capacity = %v, want N·%v = %v", n, got, one, want)
		}
	}
	sys := fig5System(1, 70000)
	need := sys.ArrivalRate / (sys.ServiceRate * sys.Availability())
	if frac := need - math.Floor(need); frac < 1e-6 || frac > 1-1e-6 {
		t.Fatalf("λ/(µ·η/(ξ+η)) = %v lies too near an integer to pin N", need)
	}
	want := int(need) + 1
	if want <= bound {
		t.Fatalf("closed-form N = %d, want one past the bound %d", want, bound)
	}
	if got, err := MinServersForStability(sys); err != nil || got != want {
		t.Fatalf("MinServersForStability(λ = %v) = %d, %v; want eq. 11's %d", sys.ArrivalRate, got, err, want)
	}
	big := fig5System(70000, 1)
	if !big.Stable() {
		t.Fatalf("N=70000 λ=1: Stable() = false at load %v", big.Load())
	}
	_, perr := big.Params()
	_, serr := big.Solve()
	for _, err := range []error{perr, serr} {
		if err == nil || !strings.Contains(err.Error(), "more than 2147483647 modes") {
			t.Errorf("N=70000 λ=1: got %v, want qbd's mode-count error", err)
		}
	}
}
