package main

import "sort"

// summary is one metric's distribution over the samples of a run.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q1, Q3: q3}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of sorted s (0 when empty).
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted s by the exclusive method, the default of Python's
// statistics.quantiles(s, n=4), so a spread computed here reads the same as
// one computed from the printed values.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile of sorted s and the number
// of samples ranked above it: the 95th of 300 samples is the 285th, with 15
// beyond. A tail percentile is only worth reading with at least ten samples
// beyond it.
func percentile(s []float64, p int) (float64, int) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := (p*n + 99) / 100 // ⌈p·n/100⌉ without rounding error
	return s[k-1], n - k
}
