package optimize

import (
	"math"
	"testing"
)

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, v := NelderMead(rosen, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 20000, Tol: 1e-16})
	if v > 1e-10 {
		t.Fatalf("min value %v at %v, want ~0 at (1,1)", v, x)
	}
	if math.Abs(x[0]-1) > 1e-4 || math.Abs(x[1]-1) > 1e-4 {
		t.Fatalf("min at %v, want (1,1)", x)
	}
}

func TestNelderMeadQuadraticND(t *testing.T) {
	target := []float64{1, -2, 3, -4}
	f := func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - target[i]
			s += d * d
		}
		return s
	}
	x, v := NelderMead(f, make([]float64, 4), NelderMeadOptions{MaxIter: 10000})
	if v > 1e-10 {
		t.Fatalf("min value %v at %v", v, x)
	}
}

func TestNewtonSolves2x2(t *testing.T) {
	// x² + y² = 5, x·y = 2 → (2, 1) from a nearby start.
	f := func(x []float64) []float64 {
		return []float64{x[0]*x[0] + x[1]*x[1] - 5, x[0]*x[1] - 2}
	}
	x, err := Newton(f, []float64{2.5, 0.5}, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 || math.Abs(x[1]-1) > 1e-8 {
		t.Fatalf("solution %v, want (2,1)", x)
	}
}

func TestNewtonReportsNonConvergence(t *testing.T) {
	// f(x) = 1 + x² has no real root: Newton must fail, not loop.
	f := func(x []float64) []float64 { return []float64{1 + x[0]*x[0]} }
	_, err := Newton(f, []float64{3}, NewtonOptions{MaxIter: 50})
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
}

func TestNewtonDimensionMismatch(t *testing.T) {
	f := func(x []float64) []float64 { return []float64{x[0], x[0]} }
	if _, err := Newton(f, []float64{1}, NewtonOptions{}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}
