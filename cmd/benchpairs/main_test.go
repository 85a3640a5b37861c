package main

import "testing"

// TestVerdict holds the verdict to the rule the command prints by: more
// failed operations in the tree overrule every metric; a gain needs nine
// pairs in ten and a median gap wider than REF's quartile spread; every
// tree run beating every REF run is better; a regression is a median worse
// than the bound; a spread narrower than the bound otherwise reads within
// bound, a wider one unresolved.
func TestVerdict(t *testing.T) {
	rss := metric{Name: "peak_rss_mb", Better: "lower", Bound: 0.1}
	ops := metric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	ten := func(base, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i%5)
		}
		return v
	}
	// Quartiles 27.5 / 50 / 80: a median gap of 50 does not clear them.
	skewed := []float64{10, 10, 20, 50, 50, 50, 50, 90, 90, 99}
	for _, tc := range []struct {
		name       string
		m          metric
		a, b       []float64
		failedMore bool
		want       string
	}{
		{"rss down a fifth", rss, ten(17, 0.1), ten(13, 0.1), false, "gain"},
		{"rss up a fifth", rss, ten(13, 0.1), ten(17, 0.1), false, "regression"},
		{"rss unchanged", rss, ten(13, 0.1), ten(13, 0.1), false, "within bound"},
		{"ops down 40%", ops, ten(100, 1), ten(60, 1), false, "regression"},
		{"ops noisy", ops, ten(100, 20), ten(100, 20), false, "unresolved"},
		{"nine wins of ten, inside the spread", ops, ten(100, 20), ten(101, 20), false, "unresolved"},
		{"one pair", rss, []float64{17}, []float64{13}, false, "gain"},
		{"rss down a fifth, more ops failed", rss, ten(17, 0.1), ten(13, 0.1), true, "failed more"},
		{"every run better, inside REF's spread", ops, skewed, ten(100, 0), false, "better"},
	} {
		if got := verdict(tc.m, tc.a, tc.b, tc.failedMore); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5: %v", q)
	}
}
