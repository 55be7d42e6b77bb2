package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// The scratch kernels promise bit-identical results to the reference
// kernels in reference_test.go (on amd64, where the compiler does not contract
// multiply-adds into FMAs; elsewhere both sides carry the same expression
// shapes, so agreement is still expected but asserted with a tolerance).

const exactArch = "amd64"

func requireSameF64(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if runtime.GOARCH == exactArch {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s[%d]: %v (%x) != %v (%x)", what, i,
					want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
			}
			continue
		}
		if diff := math.Abs(want[i] - got[i]); diff > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d]: %v != %v", what, i, want[i], got[i])
		}
	}
}

func requireSameC128(t *testing.T, what string, want, got []complex128) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if runtime.GOARCH == exactArch {
			if math.Float64bits(real(want[i])) != math.Float64bits(real(got[i])) ||
				math.Float64bits(imag(want[i])) != math.Float64bits(imag(got[i])) {
				t.Fatalf("%s[%d]: %v != %v", what, i, want[i], got[i])
			}
			continue
		}
		if diff := cmplx.Abs(want[i] - got[i]); diff > 1e-12*(1+cmplx.Abs(want[i])) {
			t.Fatalf("%s[%d]: %v != %v", what, i, want[i], got[i])
		}
	}
}

// randomTestMatrix mixes smooth random matrices with tie-heavy small-integer
// matrices; the latter hit the degenerate pivot paths (equal maxima, zero
// multipliers, repeated entries) where a cheaper pivot search could
// plausibly diverge from the reference scan order.
func randomTestMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	if rng.Intn(2) == 0 {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	} else {
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(5) - 2)
		}
	}
	return m
}

func TestEigenvaluesScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ar Arena
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		m := randomTestMatrix(rng, n)
		want, wantErr := refEigenvalues(m)
		ar.Reset()
		got, gotErr := EigenvaluesScratch(m.Clone(), &ar)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		requireSameC128(t, "eigenvalues", want, got)
	}
}

func TestForcedNullVectorScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ar Arena
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(10)
		m := randomTestMatrix(rng, n)
		if rng.Intn(2) == 0 && n > 1 {
			// Force genuine rank deficiency: overwrite a row with a copy.
			src, dst := rng.Intn(n), rng.Intn(n)
			copy(m.Data[dst*n:(dst+1)*n], m.Data[src*n:(src+1)*n])
		}
		want, wantErr := refForcedNullVector(m)
		ar.Reset()
		got, gotErr := ForcedNullVectorScratch(m.Clone(), &ar)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		requireSameF64(t, "null vector", want, got)
	}
}

// axpyPaths lists the Axpy paths this machine can run: the portable one,
// and the fused one where the CPU has AVX2 and FMA.
func axpyPaths() []bool {
	if hasAVX2FMA() {
		return []bool{false, true}
	}
	return []bool{false}
}

// onAxpyPath runs f with Axpy on the given path and restores the path
// chosen at initialisation before returning.
func onAxpyPath(fused bool, f func()) {
	saved := useFMA
	useFMA = fused
	defer func() { useFMA = saved }()
	f()
}

func pathName(fused bool) string {
	if fused {
		return "fused"
	}
	return "portable"
}

// luOracleTol bounds InverseScratch's distance from the LU inverse, in
// units of each row's largest entry.
const luOracleTol = 1e-12

// checkInverse runs InverseScratch on a copy of m on every Axpy path. Each
// result must be bit-identical to the Gauss–Jordan reference on its path,
// with the same error; a NaN entry is compared as NaN, because a NaN's
// payload follows the operand order the compiler picks. Where the LU
// oracle inverts m too and every input is finite, each entry must also lie
// within luOracleTol of its row's largest entry of the oracle's inverse.
func checkInverse(t *testing.T, what string, m *Matrix, ar *Arena) {
	t.Helper()
	finite := true
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
	}
	oracle, oracleErr := refInverse(m)
	for _, fused := range axpyPaths() {
		want, wantErr := refGaussJordan(m, fused)
		var got *Matrix
		var gotErr error
		onAxpyPath(fused, func() {
			ar.Reset()
			got, gotErr = InverseScratch(m.Clone(), ar)
		})
		name := what + "/" + pathName(fused)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: reference %v, kernel %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, ErrSingular) {
				t.Fatalf("%s: want ErrSingular, got %v", name, gotErr)
			}
			continue
		}
		if !finite {
			for i, w := range want.Data {
				g := got.Data[i]
				if math.IsNaN(w) != math.IsNaN(g) || (!math.IsNaN(w) && math.Float64bits(w) != math.Float64bits(g)) {
					t.Fatalf("%s: inverse[%d] %v vs %v", name, i, w, g)
				}
			}
			continue
		}
		requireSameF64(t, name+": inverse", want.Data, got.Data)
		if oracleErr != nil {
			continue
		}
		n := m.Rows
		for i := 0; i < n; i++ {
			orow := oracle.Data[i*n : (i+1)*n]
			var scale float64
			for _, v := range orow {
				scale = math.Max(scale, math.Abs(v))
			}
			for j, v := range orow {
				if d := math.Abs(got.Data[i*n+j] - v); d > luOracleTol*scale {
					t.Fatalf("%s: inverse[%d][%d] = %v, LU oracle %v (row scale %v)", name, i, j, got.Data[i*n+j], v, scale)
				}
			}
		}
	}
}

func TestInverseScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ar Arena
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		checkInverse(t, fmt.Sprintf("trial %d n=%d", trial, n), randomTestMatrix(rng, n), &ar)
	}
}

// TestInverseScratchSingular feeds exactly singular matrices (det 0 by
// LU): one whose elimination meets an exact zero pivot, and five
// tie-heavy ones (randomTestMatrix draws; seeds 1 and 2 give the 5×5 and
// 6×6 ones) whose elimination leaves a rounding-sized pivot instead, which
// a test for an exact zero alone accepts. Every path must return
// ErrSingular.
func TestInverseScratchSingular(t *testing.T) {
	var ar Arena
	cases := []*Matrix{
		FromRows([][]float64{{1, 2}, {2, 4}}),
		FromRows([][]float64{{0, 1, -2, 1}, {-1, -2, 2, 0}, {2, -1, -2, 0}, {-2, -2, 0, 2}}),
		FromRows([][]float64{
			{1, 2, -1, -2, 0}, {-1, -2, 0, -1, 2}, {0, -1, -2, 1, -2},
			{1, 0, 0, 1, 0}, {-2, 0, 2, -1, 1}}),
		FromRows([][]float64{
			{-1, -1, 2, 0, -2}, {-2, 0, 0, 1, 0}, {1, 0, 2, 1, -2},
			{-1, 1, -2, 1, 2}, {1, 2, 1, -2, 1}}),
		FromRows([][]float64{
			{-1, -1, 0, 2, 1, -2}, {0, 0, 0, 2, 0, -1}, {-1, -2, 0, 0, 2, 2},
			{0, 1, -2, 2, 2, 0}, {-2, -1, -2, 1, 1, -2}, {0, 2, -2, -1, -2, -2}}),
		FromRows([][]float64{
			{-2, 0, -1, 2, -2, 1}, {-1, -2, 0, -2, 2, 0}, {2, 2, 0, -2, -2, 2},
			{0, -1, 0, -1, -2, 1}, {-2, -2, 1, 0, 1, 1}, {-2, -2, -2, 0, -2, 0}}),
	}
	for i, m := range cases {
		if !FactorLU(m).IsSingular() {
			t.Fatalf("case %d: LU finds the matrix nonsingular", i)
		}
		for _, fused := range axpyPaths() {
			var err error
			onAxpyPath(fused, func() { _, err = InverseScratch(m.Clone(), &ar) })
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("case %d %s: want ErrSingular, got %v", i, pathName(fused), err)
			}
			if _, err := refGaussJordan(m, fused); !errors.Is(err, ErrSingular) {
				t.Fatalf("case %d %s: reference: want ErrSingular, got %v", i, pathName(fused), err)
			}
		}
	}
}

// TestScratchKernelsMatchReferenceLarge repeats the reference comparisons
// at sizes up to 40, where the kernels' blocks of four rows or columns run
// many times and leave every remainder mod 4.
func TestScratchKernelsMatchReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var ar Arena
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(40)
		m := randomTestMatrix(rng, n)
		want, wantErr := refEigenvalues(m)
		ar.Reset()
		got, gotErr := EigenvaluesScratch(m.Clone(), &ar)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d n=%d: eigenvalue error mismatch: %v vs %v", trial, n, wantErr, gotErr)
		}
		if wantErr == nil {
			requireSameC128(t, "eigenvalues", want, got)
		}

		checkInverse(t, fmt.Sprintf("trial %d n=%d", trial, n), m, &ar)

		if n > 1 && rng.Intn(2) == 0 {
			src, dst := rng.Intn(n), rng.Intn(n)
			copy(m.Data[dst*n:(dst+1)*n], m.Data[src*n:(src+1)*n])
		}
		wantNull, wantErr := refForcedNullVector(m)
		ar.Reset()
		gotNull, gotErr := ForcedNullVectorScratch(m.Clone(), &ar)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d n=%d: null vector error mismatch: %v vs %v", trial, n, wantErr, gotErr)
		}
		if wantErr == nil {
			requireSameF64(t, "null vector", wantNull, gotNull)
		}

		// n² draws that no check reads: they keep the seeded sequence, and
		// with it every later trial's matrix, as the trials were recorded.
		for range m.Data {
			rng.Intn(3)
		}
	}
}

// signedZeroMatrix draws entries from {−2, −1, −0, +0, 1, 2}: many
// multipliers are exactly zero, and rows keep −0 entries that an update
// with a zero multiplier would turn into +0, so a kernel that applies one
// instead of skipping the row changes bits the reference keeps.
func signedZeroMatrix(rng *rand.Rand, n int) *Matrix {
	vals := []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2}
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = vals[rng.Intn(len(vals))]
	}
	return m
}

// TestScratchKernelsMatchReferenceServedSizes repeats the inverse and
// null-vector reference comparisons at the sizes served points run, s = 45,
// 55 and 66 (N = 8–10 of the Sun model), and at 91, where the blocked
// inverse runs many full blocks of invBlock pivots and a partial last one.
// Inputs: dense normal matrices, whose blocks have no zero multiplier;
// diagonally dominant ones, which pivot on the diagonal; the same rows
// shuffled, so every step swaps; tie-heavy integers; signed zeros, whose
// steps skip rows holding −0; and a dense matrix whose first row is −0 but
// for its last entry, so that row skips every step and is swapped away
// from each pivot position in turn, its zeros' signs surviving to the
// inverse.
func TestScratchKernelsMatchReferenceServedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var ar Arena
	for _, n := range []int{45, 55, 66, 91} {
		for kind := 0; kind < 6; kind++ {
			var m *Matrix
			switch kind {
			case 0, 1, 2, 5:
				m = NewMatrix(n, n)
				for i := range m.Data {
					m.Data[i] = rng.NormFloat64()
				}
				if kind > 0 {
					for i := 0; i < n; i++ {
						m.Data[i*n+i] += float64(2 * n)
					}
				}
				if kind == 5 {
					for j := 0; j < n-1; j++ {
						m.Data[j] = math.Copysign(0, -1)
					}
					m.Data[n-1] = 1
				}
				if kind == 2 {
					perm := rng.Perm(n)
					src := m.Clone()
					for i, r := range perm {
						copy(m.Data[i*n:(i+1)*n], src.Data[r*n:(r+1)*n])
					}
				}
			case 3:
				m = randomTestMatrix(rng, n)
				for i := range m.Data {
					m.Data[i] = float64(rng.Intn(5) - 2)
				}
			case 4:
				m = signedZeroMatrix(rng, n)
			}
			name := fmt.Sprintf("n=%d kind %d", n, kind)
			checkInverse(t, name, m, &ar)

			if kind != 1 && kind != 5 {
				src, dst := rng.Intn(n), rng.Intn(n)
				copy(m.Data[dst*n:(dst+1)*n], m.Data[src*n:(src+1)*n])
			}
			want, wantErr := refForcedNullVector(m)
			ar.Reset()
			got, gotErr := ForcedNullVectorScratch(m.Clone(), &ar)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: null vector error mismatch: %v vs %v", name, wantErr, gotErr)
			}
			if wantErr == nil {
				requireSameF64(t, name+": null vector", want, got)
			}
		}
	}
}

// TestEigenvaluesScratchBlockTriangularMatchesReference feeds block upper
// triangular matrices. Their Hessenberg forms keep exact zeros on the
// subdiagonal between blocks, so QR deflates with l > 0, and each block
// above a deflated one is iterated on while the columns right of it hold
// live entries that the reference keeps updating and the eigenvalue-only
// row window skips. It also guards the column window: restricting column
// updates to rows l.. (EISPACK hqr's range) changes eigenvalue bits here.
func TestEigenvaluesScratchBlockTriangularMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ar Arena
	deflated := 0
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(39)
		m := randomTestMatrix(rng, n)
		// Zero everything below a random block-diagonal partition.
		start := 0
		for start < n {
			end := min(n, start+1+rng.Intn(8))
			for i := end; i < n; i++ {
				for j := start; j < end; j++ {
					m.Data[i*n+j] = 0
				}
			}
			if end < n {
				deflated++
			}
			start = end
		}
		want, wantErr := refEigenvalues(m)
		ar.Reset()
		got, gotErr := EigenvaluesScratch(m.Clone(), &ar)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr == nil {
			requireSameC128(t, "eigenvalues", want, got)
		}
	}
	if deflated == 0 {
		t.Fatal("no trial had more than one diagonal block")
	}
}

// TestInverseScratchLatePivotMatchesReference permutes the rows of
// well-conditioned and tie-heavy matrices so that partial pivoting must
// undo the permutation — the pivot row of step k sits far below k and the
// inverse's columns come out scrambled until the final column swaps — and
// includes inputs with a NaN multiplier, where the inverse must be NaN
// wherever the reference's is.
func TestInverseScratchLatePivotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var ar Arena
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		base := randomTestMatrix(rng, n)
		if trial%2 == 0 {
			for i := 0; i < n; i++ {
				base.Data[i*n+i] += float64(2 * n) // diagonally dominant: pivots stay on the diagonal
			}
		}
		// Reverse the rows, or shuffle them, so row i of the input is row
		// perm[i] of the base and pivoting must undo the permutation.
		perm := rng.Perm(n)
		if trial%3 == 0 {
			for i := range perm {
				perm[i] = n - 1 - i
			}
		}
		m := NewMatrix(n, n)
		for i, src := range perm {
			copy(m.Data[i*n:(i+1)*n], base.Data[src*n:(src+1)*n])
		}
		if trial%10 == 9 && n > 1 {
			// Two infinite entries in one column give a NaN multiplier,
			// and a NaN input elsewhere may reach the factors too.
			m.Data[0] = math.Inf(1)
			m.Data[n] = math.Inf(-1)
			m.Data[n+rng.Intn(n*n-n)] = math.NaN()
		}
		checkInverse(t, fmt.Sprintf("trial %d n=%d", trial, n), m, &ar)
	}
}

// TestScratchKernelsAllocationFree pins the arena contract: once the arena
// has grown to its high-water mark, repeated solves allocate nothing.
func TestScratchKernelsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 12
	src := randomTestMatrix(rng, n)
	for i := 0; i < n; i++ {
		src.Data[i*n+i] += float64(n) // diagonally dominant: invertible
	}
	var ar Arena
	work := NewMatrix(n, n)
	run := func() {
		ar.Reset()
		copy(work.Data, src.Data)
		if _, err := EigenvaluesScratch(work, &ar); err != nil {
			t.Fatal(err)
		}
		copy(work.Data, src.Data)
		if _, err := ForcedNullVectorScratch(work, &ar); err != nil {
			t.Fatal(err)
		}
		copy(work.Data, src.Data)
		if _, err := InverseScratch(work, &ar); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena to its high-water mark
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("scratch kernels allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkInverse times InverseScratch on a 66×66 matrix — the size of a
// served N = 10 point's boundary matrices — on each Axpy path this machine
// can run, into a warm arena. It is informational: CI gates the inverse of
// the real K_{N−2} through BenchmarkSpectralKernels in the root package.
func BenchmarkInverse(b *testing.B) {
	const n = 66
	rng := rand.New(rand.NewSource(43))
	src := NewMatrix(n, n)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	for _, fused := range axpyPaths() {
		b.Run(fmt.Sprintf("%s/n=%d", pathName(fused), n), func(b *testing.B) {
			onAxpyPath(fused, func() {
				var ar Arena
				invert := func() {
					ar.Reset()
					w := ar.MatUninit(n, n)
					copy(w.Data, src.Data)
					if _, err := InverseScratch(w, &ar); err != nil {
						b.Fatal(err)
					}
				}
				invert() // the arena reaches its high-water mark
				b.ReportAllocs()
				for b.Loop() {
					invert()
				}
			})
		})
	}
}
