package main

import (
	"math"
	"regexp"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It returns NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so the spreads this program prints
// match the ones a Python checker computes from the same values. A
// single value is its own quartiles; an empty slice yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	ld := len(xs)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// percentileLadder lists the percentiles reported above the median,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// supportedPercentile returns the highest percentile of the ladder
// that has at least ten samples beyond it among n samples; ok is false
// when even the lowest rung has fewer (then only the median is
// reported).
func supportedPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// nearestRank returns the 1-based rank of the p-th percentile among n
// samples: the smallest rank covering p percent of them. The epsilon
// keeps decimal percentiles such as 99.9 from rounding up a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(n, rank))
}

// metricName is the grammar every reported metric name obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a well-formed metric name.
func validName(s string) bool { return metricName.MatchString(s) }
