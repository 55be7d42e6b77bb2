package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// axpyWant is Axpy's element on each path: one rounding when fused, the
// product rounded before the sum otherwise.
func axpyWant(fused bool, a, x, y float64) float64 {
	if fused {
		return math.FMA(a, x, y)
	}
	return y + float64(a*x)
}

// checkAxpy runs Axpy(a, x, y) on each path, with x and y placed at the
// given element offsets into fresh backing arrays (so loads and stores
// are unaligned for offsets that are not multiples of four) and a canary
// just past len(x) in y's array. Every element must equal axpyWant bit for
// bit, a NaN compared as NaN (its payload depends on the operand order),
// and the canary must be untouched.
func checkAxpy(t *testing.T, a float64, x, y []float64, xOff, yOff int) {
	t.Helper()
	const canary = -1234.5678
	for _, fused := range axpyPaths() {
		xb := make([]float64, xOff+len(x))
		copy(xb[xOff:], x)
		yb := make([]float64, yOff+len(x)+1)
		copy(yb[yOff:], y)
		yb[yOff+len(x)] = canary
		onAxpyPath(fused, func() {
			Axpy(a, xb[xOff:], yb[yOff:yOff+len(x)+1])
		})
		for i := range x {
			want, got := axpyWant(fused, a, x[i], y[i]), yb[yOff+i]
			if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && math.Float64bits(want) != math.Float64bits(got)) {
				t.Fatalf("%s len=%d offsets %d/%d: y[%d] = %v (%#x), want %v (%#x) from a=%v x=%v y=%v",
					pathName(fused), len(x), xOff, yOff, i, got, math.Float64bits(got), want, math.Float64bits(want), a, x[i], y[i])
			}
		}
		if c := yb[yOff+len(x)]; math.Float64bits(c) != math.Float64bits(canary) {
			t.Fatalf("%s len=%d: element past len(x) overwritten: %v", pathName(fused), len(x), c)
		}
	}
}

// axpySpecials are the values whose products or sums round or overflow
// unusually: signed zeros, infinities, NaN, subnormals, and operands
// whose product overflows or underflows.
var axpySpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.MaxFloat64, -math.MaxFloat64, 0x1p600, 0x1p-600, 1, -1, 1 + 0x1p-52, 1.0 / 3,
}

func axpyValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return axpySpecials[rng.Intn(len(axpySpecials))]
	}
	return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(41)-20))
}

// TestAxpyProperty covers every length 0–70 — the 8-lane loop, the 4-lane
// step and the scalar tail in each combination — at element offsets 0–3,
// with random and special operands, on each path this machine can run.
func TestAxpyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 70; n++ {
		for xOff := 0; xOff < 4; xOff++ {
			for yOff := 0; yOff < 4; yOff++ {
				x, y := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], y[i] = axpyValue(rng), axpyValue(rng)
				}
				checkAxpy(t, axpyValue(rng), x, y, xOff, yOff)
			}
		}
	}
	// Each special coefficient against every special pair, in one call.
	var x, y []float64
	for _, xv := range axpySpecials {
		for _, yv := range axpySpecials {
			x, y = append(x, xv), append(y, yv)
		}
	}
	for _, a := range axpySpecials {
		checkAxpy(t, a, x, y, 1, 3)
	}
}

// TestAxpyShortYPanics pins the wrapper's bounds check: a y shorter than
// x panics in Go before the kernel runs, on each path.
func TestAxpyShortYPanics(t *testing.T) {
	for _, fused := range axpyPaths() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Axpy with len(y) < len(x) did not panic", pathName(fused))
				}
			}()
			onAxpyPath(fused, func() { Axpy(2, make([]float64, 9), make([]float64, 8)) })
		}()
	}
}

// FuzzAxpy decodes its input as the coefficient followed by interleaved
// (x, y) pairs of raw float64 bits, and the first byte as the offsets, so
// every bit pattern — NaN payloads, subnormals, infinities — reaches both
// paths.
func FuzzAxpy(f *testing.F) {
	seed := func(off byte, vals ...float64) []byte {
		b := []byte{off}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 2, 1, 1))
	f.Add(seed(5, -0.5, math.Inf(1), 0, math.NaN(), 1, 0, math.Copysign(0, -1)))
	f.Add(seed(15, 0x1p600, 0x1p600, -math.MaxFloat64, 0x1p-600, math.SmallestNonzeroFloat64))
	f.Add(seed(6, 1.0/3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		off := data[0]
		a := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		var x, y []float64
		for b := data[9:]; len(b) >= 16; b = b[16:] {
			x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			y = append(y, math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
		}
		checkAxpy(t, a, x, y, int(off&3), int(off>>2&3))
	})
}

// sameBits reports whether got is want bit for bit, a NaN matching any
// NaN (its payload depends on the operand order).
func sameBits(want, got float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return math.Float64bits(want) == math.Float64bits(got)
}

// checkAxpyRows runs AxpyRows(a, x, stride, y) on each path, the b = len(a)
// rows of x laid out stride = len(y)+pad elements apart from element xOff
// of a fresh array, y at element yOff with a canary just past it. Every
// element must equal len(a) axpyWant steps in row order, and the canary
// must be untouched.
func checkAxpyRows(t *testing.T, a []float64, rows [][]float64, y []float64, pad, xOff, yOff int) {
	t.Helper()
	const canary = -1234.5678
	stride := len(y) + pad
	xb := make([]float64, xOff+len(rows)*stride)
	for r, row := range rows {
		copy(xb[xOff+r*stride:], row)
	}
	for _, fused := range axpyPaths() {
		yb := make([]float64, yOff+len(y)+1)
		copy(yb[yOff:], y)
		yb[yOff+len(y)] = canary
		onAxpyPath(fused, func() {
			AxpyRows(a, xb[xOff:], stride, yb[yOff:yOff+len(y)])
		})
		for j := range y {
			want := y[j]
			for r, at := range a {
				want = axpyWant(fused, at, rows[r][j], want)
			}
			if got := yb[yOff+j]; !sameBits(want, got) {
				t.Fatalf("%s b=%d len=%d pad %d offsets %d/%d: y[%d] = %v (%#x), want %v (%#x)",
					pathName(fused), len(a), len(y), pad, xOff, yOff, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if c := yb[yOff+len(y)]; math.Float64bits(c) != math.Float64bits(canary) {
			t.Fatalf("%s b=%d len=%d: element past len(y) overwritten: %v", pathName(fused), len(a), len(y), c)
		}
	}
}

// TestAxpyRowsProperty covers every length 0–70 — the 16-lane loop, the
// 4-wide steps and the scalar tail in each combination — with b = 1..8
// rows, row padding and element offsets 0–3, random and special operands
// and zero coefficients, on each path this machine can run.
func TestAxpyRowsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for n := 0; n <= 70; n++ {
		for b := 1; b <= 8; b++ {
			for off := 0; off < 4; off++ {
				a := make([]float64, b)
				rows := make([][]float64, b)
				for r := range rows {
					a[r] = axpyValue(rng)
					if rng.Intn(4) == 0 {
						a[r] = axpySpecials[rng.Intn(2)] // ±0
					}
					rows[r] = make([]float64, n)
					for j := range rows[r] {
						rows[r][j] = axpyValue(rng)
					}
				}
				y := make([]float64, n)
				for j := range y {
					y[j] = axpyValue(rng)
				}
				checkAxpyRows(t, a, rows, y, rng.Intn(4), off, (off+1+rng.Intn(3))%4)
			}
		}
	}
	// Each special coefficient pair against every special (x, y), in one call.
	var x0, x1, y []float64
	for _, xv := range axpySpecials {
		for _, yv := range axpySpecials {
			x0, x1, y = append(x0, xv), append(x1, yv), append(y, yv)
		}
	}
	for _, a0 := range axpySpecials {
		for _, a1 := range axpySpecials {
			checkAxpyRows(t, []float64{a0, a1}, [][]float64{x0, x1}, y, 1, 1, 3)
		}
	}
}

// TestAxpyRowsShortXPanics pins the wrapper's bounds check: an x too short
// for its last row panics before the kernel runs, on each path.
func TestAxpyRowsShortXPanics(t *testing.T) {
	for _, fused := range axpyPaths() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AxpyRows with a short x did not panic", pathName(fused))
				}
			}()
			onAxpyPath(fused, func() { AxpyRows(make([]float64, 3), make([]float64, 2*10+7), 10, make([]float64, 8)) })
		}()
	}
}

// subTrackWant is subTrack's definition, element by element: the update
// with the product rounded first, and the first index of the strictly
// largest modulus, a NaN never compared larger.
func subTrackWant(m float64, x, y []float64) ([]float64, float64, int) {
	out := append([]float64(nil), y...)
	nm, arg := 0.0, -1
	for j := range x {
		out[j] = out[j] - m*x[j]
		if av := math.Abs(out[j]); av > nm {
			nm, arg = av, j
		}
	}
	return out, nm, arg
}

// checkSubTrack runs subTrack on each path with x and y at the given
// element offsets and a canary past y's end, against subTrackWant.
func checkSubTrack(t *testing.T, m float64, x, y []float64, xOff, yOff int) {
	t.Helper()
	const canary = -1234.5678
	wantY, wantMax, wantArg := subTrackWant(m, x, y)
	for _, fused := range axpyPaths() {
		xb := make([]float64, xOff+len(x))
		copy(xb[xOff:], x)
		yb := make([]float64, yOff+len(x)+1)
		copy(yb[yOff:], y)
		yb[yOff+len(x)] = canary
		var gotMax float64
		var gotArg int
		onAxpyPath(fused, func() {
			gotMax, gotArg = subTrack(m, xb[xOff:], yb[yOff:yOff+len(x)+1])
		})
		name := fmt.Sprintf("%s len=%d offsets %d/%d", pathName(fused), len(x), xOff, yOff)
		for j := range x {
			if got := yb[yOff+j]; !sameBits(wantY[j], got) {
				t.Fatalf("%s: y[%d] = %v (%#x), want %v (%#x)", name, j, got, math.Float64bits(got), wantY[j], math.Float64bits(wantY[j]))
			}
		}
		if math.Float64bits(gotMax) != math.Float64bits(wantMax) || gotArg != wantArg {
			t.Fatalf("%s: max %v at %d, want %v at %d", name, gotMax, gotArg, wantMax, wantArg)
		}
		if c := yb[yOff+len(x)]; math.Float64bits(c) != math.Float64bits(canary) {
			t.Fatalf("%s: element past len(x) overwritten: %v", name, c)
		}
	}
}

// TestSubTrackProperty covers every length 0–70 at offsets 0–3 with random
// and special operands, and tie-heavy rows — small integers, so equal
// moduli land in different lanes and in the tail — with NaNs among them,
// on each path this machine can run.
func TestSubTrackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 16; off++ {
			x, y := make([]float64, n), make([]float64, n)
			m := axpyValue(rng)
			for j := range x {
				x[j], y[j] = axpyValue(rng), axpyValue(rng)
			}
			if off&1 == 1 {
				// Ties: |y − m·x| ∈ {0, 1, 2} in every lane, a NaN now and then.
				m = float64(rng.Intn(3) - 1)
				for j := range x {
					x[j], y[j] = float64(rng.Intn(3)-1), float64(rng.Intn(3)-1)
					if rng.Intn(20) == 0 {
						y[j] = math.NaN()
					}
				}
			}
			checkSubTrack(t, m, x, y, off&3, off>>2)
		}
	}
	// All zero, all NaN, and signed zeros: no element exceeds 0.
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN()} {
		x, y := make([]float64, 13), make([]float64, 13)
		for j := range y {
			y[j] = v
		}
		checkSubTrack(t, 1, x, y, 0, 0)
	}
	// Each special multiplier against every special pair, in one call.
	var x, y []float64
	for _, xv := range axpySpecials {
		for _, yv := range axpySpecials {
			x, y = append(x, xv), append(y, yv)
		}
	}
	for _, m := range axpySpecials {
		checkSubTrack(t, m, x, y, 1, 3)
	}
}

// fuzzFloats decodes data as raw little-endian float64 bits.
func fuzzFloats(data []byte) []float64 {
	var out []float64
	for ; len(data) >= 8; data = data[8:] {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return out
}

func fuzzSeed(head byte, vals ...float64) []byte {
	b := []byte{head}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzAxpyRows decodes its first byte as the row count b (1–8, low three
// bits), the padding and the x offset, and the rest as raw float64 bits:
// b coefficients, then interleaved (y, x_0, …, x_{b−1}) per element.
func FuzzAxpyRows(f *testing.F) {
	f.Add(fuzzSeed(0, 2, 1, 1))
	f.Add(fuzzSeed(1, 0, -0.5, math.Copysign(0, -1), 1, math.Inf(1), 0, math.NaN(), -2))
	f.Add(fuzzSeed(7|3<<3|2<<5, 1, 2, 3, 4, 5, 6, 7, 8, 0x1p-1030, 0x1p600, -math.MaxFloat64, 1.0/3, 0, 0, 0, 0, 0, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		b := int(data[0]&7) + 1
		pad, xOff := int(data[0]>>3&3), int(data[0]>>5&3)
		vals := fuzzFloats(data[1:])
		if len(vals) < b {
			return
		}
		a, vals := vals[:b], vals[b:]
		n := len(vals) / (b + 1)
		rows := make([][]float64, b)
		for r := range rows {
			rows[r] = make([]float64, n)
		}
		y := make([]float64, n)
		for j := 0; j < n; j++ {
			y[j] = vals[j*(b+1)]
			for r := range rows {
				rows[r][j] = vals[j*(b+1)+1+r]
			}
		}
		checkAxpyRows(t, a, rows, y, pad, xOff, (xOff+1)&3)
	})
}

// FuzzSubTrack decodes its first byte as the offsets and the rest as the
// multiplier followed by interleaved (x, y) pairs of raw float64 bits.
func FuzzSubTrack(f *testing.F) {
	f.Add(fuzzSeed(0, 1, 1, 2, 3, 4))
	f.Add(fuzzSeed(5, -1, 1, 0, -1, 1, 0, math.NaN(), 1, -1, 1, 1, -1, 0, 0, 1, 1, -1, 1, 0))
	f.Add(fuzzSeed(15, math.Copysign(0, -1), math.Inf(1), 0, 0x1p-1030, math.SmallestNonzeroFloat64, 2, -2, 2, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		vals := fuzzFloats(data[1:])
		m, vals := vals[0], vals[1:]
		x, y := make([]float64, len(vals)/2), make([]float64, len(vals)/2)
		for j := range x {
			x[j], y[j] = vals[2*j], vals[2*j+1]
		}
		checkSubTrack(t, m, x, y, int(data[0]&3), int(data[0]>>2&3))
	})
}
