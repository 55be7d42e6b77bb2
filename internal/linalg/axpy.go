package linalg

import "math"

// useFMA reports whether Axpy, AxpyRows and subTrack run their AVX2
// kernels. It is decided once, at package initialisation, from what the
// CPU and the operating system support; no option selects it, and only
// this package's tests flip it, to run both paths on one machine.
var useFMA = hasAVX2FMA()

// Axpy adds a·x to y element by element: y[i] += a·x[i] for i < len(x).
// y must be at least as long as x (a shorter y panics before any element
// is written) and must not overlap x.
//
// On amd64 CPUs with AVX2 and FMA each element is one fused multiply-add,
// math.FMA(a, x[i], y[i]), rounded once; everywhere else it is
// y[i] + a·x[i] with the product rounded before the sum. One process
// always takes one path, so every solve on a host gets the same bits.
func Axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	if useFMA {
		axpyFMA(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// axpyGo is the portable Axpy. The explicit float64 conversion rounds the
// product before the sum, so no compiler contracts it into a fused
// multiply-add on any GOARCH.
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += float64(a * xs[0])
		ys[1] += float64(a * xs[1])
		ys[2] += float64(a * xs[2])
		ys[3] += float64(a * xs[3])
	}
	for ; i < len(x); i++ {
		y[i] += float64(a * x[i])
	}
}

// AxpyRows adds to y a combination of len(a) rows of x, stride elements
// apart: y[j] += a[t]·x[t·stride+j] for t = 0, 1, …, len(a)−1 in that
// order, each term added as Axpy(a[t], row t, y) would add it — fused on
// CPUs with AVX2 and FMA, the product rounded first elsewhere. So every
// element of y gets the bits of len(a) Axpy calls in row order, a zero
// coefficient included (it can still turn a −0 into +0 or an infinite x
// into NaN), while the AVX2 kernel keeps each element in a register across
// the rows and loads and stores y once instead of len(a) times. Every row
// read must lie inside x (a short x panics before any element is written),
// and y must not overlap x.
func AxpyRows(a, x []float64, stride int, y []float64) {
	if len(a) == 0 || len(y) == 0 {
		return
	}
	_ = x[(len(a)-1)*stride+len(y)-1]
	if useFMA {
		axpyRowsFMA(a, x, stride, y)
		return
	}
	for t, at := range a {
		axpyGo(at, x[t*stride:t*stride+len(y)], y)
	}
}

// subTrack is one row update of a full-pivot elimination together with
// the row's new pivot-search state: y[j] −= m·x[j] for j < len(x), then
// the largest |y[j]| and the first j attaining it, or (0, −1) when no
// |y[j]| exceeds 0. A NaN is never selected. The AVX2 kernel rounds the
// product before the difference, as the Go loop below is compiled on
// amd64, so the two agree bit for bit; on other GOARCHes the loop keeps
// whatever contraction the compiler gives it. y must be at least as long
// as x and must not overlap it.
func subTrack(m float64, x, y []float64) (float64, int) {
	y = y[:len(x)]
	if useFMA {
		return subTrackAVX(m, x, y)
	}
	nm, arg := 0.0, -1
	for j, xv := range x {
		y[j] -= m * xv
		if av := math.Abs(y[j]); av > nm {
			nm, arg = av, j
		}
	}
	return nm, arg
}
