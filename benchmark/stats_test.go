package main

import "testing"

func TestSummarize(t *testing.T) {
	// Expected quartiles are statistics.quantiles(xs, n=4) in Python.
	cases := []struct {
		xs     []float64
		want   summary
		reason string
	}{
		{[]float64{1, 2, 3, 4}, summary{N: 4, Median: 2.5, Q1: 1.25, Q3: 3.75}, "even count"},
		{[]float64{3, 1, 2}, summary{N: 3, Median: 2, Q1: 1, Q3: 3}, "odd count"},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, summary{N: 7, Median: 4, Q1: 2, Q3: 7}, "unsorted"},
		{[]float64{0.5, 0.25}, summary{N: 2, Median: 0.375, Q1: 0.1875, Q3: 0.5625}, "two samples extrapolate"},
		{[]float64{7}, summary{N: 1, Median: 7, Q1: 7, Q3: 7}, "one sample"},
		{seq(300), summary{N: 300, Median: 150.5, Q1: 75.25, Q3: 225.75}, "n=300"},
		{seq(20), summary{N: 20, Median: 10.5, Q1: 5.25, Q3: 15.75}, "n=20"},
	}
	for _, c := range cases {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("%s: summarize = %+v, want %+v", c.reason, got, c.want)
		}
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n, p   int
		value  float64
		beyond int
		reason string
	}{
		{300, 95, 285, 15, "300 samples: p95 is the 285th, with 15 beyond"},
		{200, 95, 190, 10, "200 samples are the fewest with ten beyond p95"},
		{20, 95, 19, 1, "20 samples leave one beyond p95"},
		{40, 75, 30, 10, "40 samples are the fewest with ten beyond p75"},
		{45, 75, 34, 11, "rounds the rank up"},
		{1, 75, 1, 0, "one sample"},
	}
	for _, c := range cases {
		v, beyond := percentile(sorted(seq(c.n)), c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("%s: p%d of 1..%d = %v with %d beyond, want %v with %d", c.reason, c.p, c.n, v, beyond, c.value, c.beyond)
		}
	}
}

// seq is n, n-1, …, 1: summarize and percentile callers must sort.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}
