package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNullVectorKnown(t *testing.T) {
	// Rank-2 matrix with null vector along (1, 1, 1).
	a := FromRows([][]float64{
		{1, -1, 0},
		{0, 1, -1},
		{1, 0, -1},
	})
	x, err := ForcedNullVector(a)
	if err != nil {
		t.Fatal(err)
	}
	assertNull(t, a, x, 1e-10)
}

func TestNullVectorZeroMatrix(t *testing.T) {
	x, err := ForcedNullVector(NewMatrix(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("null vector of zero matrix must be nonzero")
	}
}

func TestNullVectorRandomRankDeficientProperty(t *testing.T) {
	// Build A = B·C with B n×(n−1), C (n−1)×n: rank n−1 generically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		b := randomMatrix(rng, n, n-1)
		c := randomMatrix(rng, n-1, n)
		a := b.Times(c)
		x, err := ForcedNullVector(a)
		if err != nil {
			return false
		}
		r := a.TimesVec(x)
		for _, v := range r {
			if math.Abs(v) > 1e-7*(1+a.MaxAbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLeftNullVectorGenerator(t *testing.T) {
	// A CTMC generator has left null vector = stationary distribution.
	// Two-state chain: rates 2 (0→1) and 3 (1→0); stationary ∝ (3, 2).
	g := FromRows([][]float64{
		{-2, 2},
		{3, -3},
	})
	u, err := ForcedLeftNullVector(g)
	if err != nil {
		t.Fatal(err)
	}
	// u proportional to (3, 2)?
	if math.Abs(u[0]*2-u[1]*3) > 1e-12 {
		t.Fatalf("left null vector %v not proportional to (3,2)", u)
	}
}

func assertNull(t *testing.T, a *Matrix, x []float64, tol float64) {
	t.Helper()
	r := a.TimesVec(x)
	for i, v := range r {
		if math.Abs(v) > tol {
			t.Fatalf("(A·x)[%d] = %v, want ~0 (x=%v)", i, v, x)
		}
	}
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if math.Abs(mx-1) > 1e-12 {
		t.Fatalf("null vector not ∞-normalised: %v", x)
	}
}
