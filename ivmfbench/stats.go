package main

import (
	"fmt"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, highest
// first, in per-mille so the rank arithmetic stays exact.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rankPerMille is the 1-based nearest rank of the q‰ percentile in n
// sorted samples: ceil(q·n/1000).
func rankPerMille(q, n int) int {
	return (q*n + 999) / 1000
}

// tailPerMille picks the highest ladder percentile with at least ten
// samples beyond it; with fewer than twenty samples nothing qualifies
// and the median (500‰) is reported instead.
func tailPerMille(n int) int {
	for _, q := range tailLadder {
		if n-rankPerMille(q, n) >= 10 {
			return q
		}
	}
	return 500
}

// quantilePerMille reads the q‰ nearest-rank percentile of sorted.
func quantilePerMille(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := rankPerMille(q, len(sorted))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// summary is one latency distribution reduced to what the report
// prints: lower quartile, median, tail, and which percentile the tail
// is.
type summary struct {
	N        int
	P25      float64
	P50      float64
	Tail     float64
	TailName string
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailPerMille(len(s))
	return summary{
		N:        len(s),
		P25:      quantilePerMille(s, 250),
		P50:      quantilePerMille(s, 500),
		Tail:     quantilePerMille(s, q),
		TailName: percentileName(q),
	}
}

// percentileName renders a per-mille percentile as "p99", "p99.9".
func percentileName(q int) string {
	if q%10 == 0 {
		return fmt.Sprintf("p%d", q/10)
	}
	return fmt.Sprintf("p%d.%d", q/10, q%10)
}

// median of xs (nearest rank); 0 for an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantilePerMille(s, 500)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
