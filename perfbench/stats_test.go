package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRankAndBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	cases := []struct {
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{0.5, 50, 50, true},
		{0.9, 90, 10, true},  // exactly ten samples beyond: supported
		{0.95, 95, 5, false}, // five beyond: not supported
		{0.99, 99, 1, false},
	}
	for _, c := range cases {
		got := percentile(xs, c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.OK != c.ok || got.N != 100 {
			t.Errorf("percentile(1..100, %v) = %+v, want value %v beyond %d ok %v n 100", c.p, got, c.value, c.beyond, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile modified its input")
	}
	if got := percentile(nil, 0.5); got.OK || got.N != 0 {
		t.Errorf("percentile(nil) = %+v, want an unsupported empty result", got)
	}
	// 99 samples: p90 has rank 90 and only 9 beyond.
	if got := percentile(xs[:99], 0.9); got.OK || got.Beyond != 9 {
		t.Errorf("percentile(99 samples, 0.9) = %+v, want 9 beyond and unsupported", got)
	}
}

func TestHighestSupported(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 0},       // not even p50 has ten beyond
		{20, 0.5},    // p50: 10 beyond; p90: 2 beyond
		{100, 0.9},   // p90: 10 beyond; p99: 1 beyond
		{1000, 0.99}, // p99: 10 beyond
	}
	for _, c := range cases {
		if got := highestSupported(c.n, 0.5, 0.9, 0.99); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 5, 3}, [3]float64{1.5, 4, 8.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{0.2, 0.9, 0.4, 0.4, 0.7, 0.1, 0.3}, [3]float64{0.2, 0.4, 0.7}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
