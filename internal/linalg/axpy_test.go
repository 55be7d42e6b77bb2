package linalg

import (
	"encoding/binary"
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
