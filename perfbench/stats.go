package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p90 read from fewer than ten slower samples is decided by a handful of
// outliers, so such a percentile is not reported.
const minBeyond = 10

// Percentile is one latency percentile with the evidence behind it.
type Percentile struct {
	P      float64 // the requested quantile, e.g. 0.9
	Value  float64 // nearest-rank sample value
	N      int     // samples the percentile was read from
	Beyond int     // samples strictly above the percentile's rank
	OK     bool    // Beyond ≥ minBeyond
}

// percentile returns the nearest-rank p-quantile of xs (rank ⌈p·n⌉, a real
// sample, never an interpolation) and whether at least minBeyond samples
// lie beyond it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) Percentile {
	n := len(xs)
	if n == 0 {
		return Percentile{P: p}
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	return Percentile{P: p, Value: s[rank-1], N: n, Beyond: beyond, OK: beyond >= minBeyond}
}

// highestSupported returns the highest of the candidate quantiles that has
// at least minBeyond samples beyond it among n samples, or 0 when none has.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond && p > best {
			best = p
		}
	}
	return best
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4), which
// is how the benchmark's steadiness is judged. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
