package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with the percentile it turned out to be: 26 samples
// give p61, 120 give p91. Below twenty samples no percentile above the
// median qualifies, so the tail is the median.
func tail(xs []float64) (value float64, pct int) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := sorted(xs)
	return s[n-11], 100 * (n - 10) / n
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the driver's rule). It needs two
// values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}
