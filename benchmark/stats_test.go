package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // deliberately unsorted
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its argument in place: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) prints, the method the contract's
// steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 5, 5, 5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "cpu_us_per_flow", better: "lower", bound: 0.10}
	higher := metricDef{name: "flows_per_s", better: "higher", bound: 0.10}
	tight := func(m float64) series {
		return newSeries("x", []float64{m * 0.99, m, m, m, m * 1.01})
	}
	wide := func(m float64) series {
		return newSeries("x", []float64{m * 0.6, m * 0.8, m, m * 1.2, m * 1.4})
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b series
		want string
	}{
		{"within the bound", lower, tight(100), tight(105), "same"},
		{"worse, lower is better", lower, tight(100), tight(115), "worse"},
		{"better, lower is better", lower, tight(100), tight(80), "better"},
		{"worse, higher is better", higher, tight(100), tight(85), "worse"},
		{"better, higher is better", higher, tight(100), tight(120), "better"},
		{"wide and overlapping", lower, wide(100), wide(115), "unresolved"},
		{"wide but every run worse", lower, wide(100), wide(400), "worse"},
		{"wide but every run better", lower, wide(400), wide(100), "better"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
