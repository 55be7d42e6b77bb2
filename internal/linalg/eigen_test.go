package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEigenvaluesDiagonal(t *testing.T) {
	ev, err := Eigenvalues(Diag([]float64{3, -1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	assertEigenvalueSet(t, ev, []complex128{3, -1, 2}, 1e-10)
}

func TestEigenvaluesTriangular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 5, 9},
		{0, 2, 7},
		{0, 0, 3},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	assertEigenvalueSet(t, ev, []complex128{1, 2, 3}, 1e-10)
}

func TestEigenvaluesRotation(t *testing.T) {
	// A rotation by θ has eigenvalues e^{±iθ}.
	theta := 0.7
	a := FromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{
		complex(math.Cos(theta), math.Sin(theta)),
		complex(math.Cos(theta), -math.Sin(theta)),
	}
	assertEigenvalueSet(t, ev, want, 1e-12)
}

func TestEigenvaluesCompanion(t *testing.T) {
	// Companion matrix of p(x) = (x−1)(x−2)(x−3)(x+4)
	//                         = x⁴ − 2x³ − 13x² + 38x − 24.
	coef := []float64{-24, 38, -13, -2} // constant..cubic of monic quartic
	n := len(coef)
	a := NewMatrix(n, n)
	for i := 1; i < n; i++ {
		a.Set(i, i-1, 1)
	}
	for i := 0; i < n; i++ {
		a.Set(i, n-1, -coef[i])
	}
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	assertEigenvalueSet(t, ev, []complex128{1, 2, 3, -4}, 1e-8)
}

func TestEigenvaluesComplexQuadruple(t *testing.T) {
	// Block diagonal with two rotation-scaled blocks: eigenvalues
	// 2e^{±i·0.3}, 0.5e^{±i·1.1}.
	mk := func(r, th float64) [][]float64 {
		return [][]float64{
			{r * math.Cos(th), -r * math.Sin(th)},
			{r * math.Sin(th), r * math.Cos(th)},
		}
	}
	b1 := mk(2, 0.3)
	b2 := mk(0.5, 1.1)
	a := FromRows([][]float64{
		{b1[0][0], b1[0][1], 0, 0},
		{b1[1][0], b1[1][1], 0, 0},
		{0, 0, b2[0][0], b2[0][1]},
		{0, 0, b2[1][0], b2[1][1]},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{
		complex(2*math.Cos(0.3), 2*math.Sin(0.3)),
		complex(2*math.Cos(0.3), -2*math.Sin(0.3)),
		complex(0.5*math.Cos(1.1), 0.5*math.Sin(1.1)),
		complex(0.5*math.Cos(1.1), -0.5*math.Sin(1.1)),
	}
	assertEigenvalueSet(t, ev, want, 1e-10)
}

func TestEigenvaluesTraceDetProperty(t *testing.T) {
	// Σλ = trace(A) and Πλ = det(A) for random matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomMatrix(rng, n, n)
		ev, err := Eigenvalues(a)
		if err != nil || len(ev) != n {
			return false
		}
		var sum complex128 = 0
		var prod complex128 = 1
		for _, l := range ev {
			sum += l
			prod *= l
		}
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		det := FactorLU(a).Det()
		scale := 1 + math.Abs(tr)
		if math.Abs(real(sum)-tr) > 1e-8*scale || math.Abs(imag(sum)) > 1e-8*scale {
			return false
		}
		dscale := 1 + math.Abs(det)
		return math.Abs(real(prod)-det) <= 1e-6*dscale && math.Abs(imag(prod)) <= 1e-6*dscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEigenvaluesSimilarityInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	a := randomMatrix(rng, n, n)
	p := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		p.Add(i, i, float64(n))
	}
	pinv, err := Inverse(p)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Times(a).Times(pinv)
	evA, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := Eigenvalues(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEigenvalueSet(t, evB, evA, 1e-6)
}

func TestEigenvaluesEmptyAndTiny(t *testing.T) {
	ev, err := Eigenvalues(NewMatrix(0, 0))
	if err != nil || len(ev) != 0 {
		t.Fatalf("empty: ev=%v err=%v", ev, err)
	}
	ev, err = Eigenvalues(FromRows([][]float64{{42}}))
	if err != nil || len(ev) != 1 || ev[0] != 42 {
		t.Fatalf("1×1: ev=%v err=%v", ev, err)
	}
	ev, err = Eigenvalues(FromRows([][]float64{{0, 1}, {-1, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	assertEigenvalueSet(t, ev, []complex128{complex(0, 1), complex(0, -1)}, 1e-12)
}

func TestEigenvaluesZeroMatrix(t *testing.T) {
	ev, err := Eigenvalues(NewMatrix(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ev {
		if l != 0 {
			t.Fatalf("zero matrix eigenvalue %v != 0", l)
		}
	}
}

func TestEigenvaluesDefective(t *testing.T) {
	// Jordan block: defective eigenvalue 5 with multiplicity 3.
	a := FromRows([][]float64{
		{5, 1, 0},
		{0, 5, 1},
		{0, 0, 5},
	})
	ev, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ev {
		if absC(l-5) > 1e-4 { // defective: accuracy degrades to ε^(1/3)
			t.Fatalf("Jordan block eigenvalue %v too far from 5", l)
		}
	}
}

// assertEigenvalueSet checks the two multisets match via greedy matching.
func assertEigenvalueSet(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d eigenvalues, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	g := append([]complex128(nil), got...)
	sort.Slice(g, func(i, j int) bool { return cmpC(g[i], g[j]) })
	w := append([]complex128(nil), want...)
	sort.Slice(w, func(i, j int) bool { return cmpC(w[i], w[j]) })
	for i := range g {
		if absC(g[i]-w[i]) > tol {
			t.Fatalf("eigenvalue %d: got %v, want %v (full: %v vs %v)", i, g[i], w[i], g, w)
		}
	}
}

func absC(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

func cmpC(a, b complex128) bool {
	if real(a) != real(b) {
		return real(a) < real(b)
	}
	return imag(a) < imag(b)
}
