package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomMatrix(rng, n, n)
		// Diagonal boost keeps the random matrix comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := randomVec(rng, n)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.TimesVec(x)
		for i := range b {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDetKnown(t *testing.T) {
	cases := []struct {
		m    *Matrix
		want float64
	}{
		{Identity(4), 1},
		{FromRows([][]float64{{2, 0}, {0, 3}}), 6},
		{FromRows([][]float64{{1, 2}, {3, 4}}), -2},
		{FromRows([][]float64{{0, 1}, {1, 0}}), -1},
		{FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}), 0},
	}
	for i, c := range cases {
		if got := FactorLU(c.m).Det(); math.Abs(got-c.want) > 1e-10 {
			t.Errorf("case %d: det = %v, want %v", i, got, c.want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveRHSLengthMismatch(t *testing.T) {
	if _, err := Solve(Identity(3), []float64{1}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return a.Times(inv).Equalish(Identity(n), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveMatrix(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := FromRows([][]float64{{1, 0}, {0, 1}})
	x, err := FactorLU(a).SolveMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Times(x).Equalish(Identity(2), 1e-12) {
		t.Fatalf("A·X != I: %v", a.Times(x))
	}
}

func TestSolveTranspose(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {0, 3}})
	b := []float64{4, 7}
	x, err := SolveTranspose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify xᵀ·A = bᵀ.
	got := a.VecTimes(x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-12 {
			t.Fatalf("xᵀA = %v, want %v", got, b)
		}
	}
}

func TestPermutationSign(t *testing.T) {
	// A pure permutation matrix: det = sign of the permutation.
	p := FromRows([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	}) // cyclic 3-permutation, even, det = +1
	if got := FactorLU(p).Det(); math.Abs(got-1) > 1e-14 {
		t.Fatalf("det(perm) = %v, want 1", got)
	}
}
