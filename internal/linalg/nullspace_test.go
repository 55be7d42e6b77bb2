package linalg

import (
	"errors"
	"math"
	"math/cmplx"
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

func TestCNullVectorKnown(t *testing.T) {
	// Complex rank-1 perturbation: A = I − v·vᴴ/(vᴴv) has null vector v... use
	// a simpler known case: [[i, -1], [1, i]] is singular with null (1, i).
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(0, 1))
	a.Set(0, 1, -1)
	a.Set(1, 0, 1)
	a.Set(1, 1, complex(0, 1))
	x, err := CForcedNullVector(a)
	if err != nil {
		t.Fatal(err)
	}
	r := cMatVec(a, x)
	for _, v := range r {
		if cmplx.Abs(v) > 1e-12 {
			t.Fatalf("residual %v too large (x=%v)", r, x)
		}
	}
}

func TestCLeftNullVectorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		// Rank-deficient complex matrix A = B·C as in the real case.
		b := randomCMatrix(rng, n, n-1)
		c := randomCMatrix(rng, n-1, n)
		a := cTimes(b, c)
		u, err := CForcedLeftNullVector(a)
		if err != nil {
			return false
		}
		r := a.VecTimes(u)
		for _, v := range r {
			if cmplx.Abs(v) > 1e-7*(1+a.MaxAbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := randomCMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), 0))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x, err := FactorCLU(a).Solve(b)
		if err != nil {
			return false
		}
		r := cMatVec(a, x)
		for i := range b {
			if cmplx.Abs(r[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCLUDetKnown(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(0, 1)) // det = i·i − 0 = −1
	a.Set(1, 1, complex(0, 1))
	if d := FactorCLU(a).Det(); cmplx.Abs(d-(-1)) > 1e-14 {
		t.Fatalf("det = %v, want -1", d)
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := FactorCLU(a).Solve([]complex128{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
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

func randomCMatrix(rng *rand.Rand, r, c int) *CMatrix {
	m := NewCMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func cTimes(a, b *CMatrix) *CMatrix {
	out := NewCMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Add(i, j, aik*b.At(k, j))
			}
		}
	}
	return out
}

func cMatVec(a *CMatrix, x []complex128) []complex128 {
	out := make([]complex128, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s complex128
		for j := 0; j < a.Cols; j++ {
			s += a.At(i, j) * x[j]
		}
		out[i] = s
	}
	return out
}
