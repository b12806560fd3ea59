package main

import "testing"

func TestTailPerMilleHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 500}, {19, 500}, {20, 500}, {39, 500}, {40, 750}, {99, 750},
		{100, 900}, {199, 900}, {200, 950}, {999, 950}, {1000, 990},
		{9999, 990}, {10000, 999}, {1 << 20, 999},
	} {
		if got := tailPerMille(tc.n); got != tc.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestTailPerMilleIsHighest checks the rule itself for every sample
// count up to 20000: the chosen percentile leaves at least ten samples
// beyond it, and every higher ladder percentile does not.
func TestTailPerMilleIsHighest(t *testing.T) {
	for n := 20; n <= 20000; n++ {
		q := tailPerMille(n)
		if beyond := n - rankPerMille(q, n); beyond < 10 {
			t.Fatalf("n=%d: p%d‰ has only %d samples beyond it", n, q, beyond)
		}
		for _, higher := range tailLadder {
			if higher > q && n-rankPerMille(higher, n) >= 10 {
				t.Fatalf("n=%d: chose %d‰ but %d‰ also has ten samples beyond it", n, q, higher)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q    int
		want float64
	}{{500, 50}, {900, 90}, {990, 99}, {999, 100}} {
		if got := quantilePerMille(xs, tc.q); got != tc.want {
			t.Errorf("quantile %d‰ of 1..100 = %g, want %g", tc.q, got, tc.want)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P25 != 2 || s.P50 != 3 || s.Tail != 3 || s.TailName != "p50" {
		t.Errorf("summarize of 5 samples = %+v, want median 3 reported as the tail", s)
	}
	if got := percentileName(999); got != "p99.9" {
		t.Errorf("percentileName(999) = %q", got)
	}
}
