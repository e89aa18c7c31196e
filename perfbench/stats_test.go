package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		// statistics.quantiles([5,1,4,2,3], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	// Quartiles 2.75 and 8.25 around a median of 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{39, 0, false},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{2000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, s := range []string{"run_s", "np", "host_share.machine", "fleet.shard_ms_p50", "a-b", "9lives"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", ".hidden", "_x", "a b", "a/b", "µs", "x{y}", string(make([]byte, 65))} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, virtualMetrics, perLayer} {
		for _, m := range set {
			if !validName(m.Name) || seen[m.Name] {
				t.Errorf("metric %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
		}
	}
}
