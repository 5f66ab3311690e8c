package main

import (
	"sort"
	"time"
)

// quantile returns the i-th of the n-1 cut points that split xs into n
// equal groups, the way Python's statistics.quantiles(xs, n=n)[i-1]
// computes it (the default "exclusive" method), so the numbers printed here
// match the ones computed from the raw values. xs is not modified. An empty
// input reads 0 and a single value is its own quantile.
func quantile(xs []float64, i, n int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := len(s) + 1
	j := min(max(i*m/n, 1), len(s)-1)
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

func median(xs []float64) float64 { return quantile(xs, 1, 2) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 1, 4), quantile(xs, 2, 4), quantile(xs, 3, 4)
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
