package linalg

// useFMA reports whether Axpy runs the AVX2/FMA kernel. It is decided once,
// at package initialisation, from what the CPU and the operating system
// support; no option selects it, and only this package's tests flip it, to
// run both paths on one machine.
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
