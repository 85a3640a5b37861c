package main

import (
	"math"
	"sort"
)

// summary is what the runner reports for one metric's per-episode samples.
// Fast, the mean of the fastest quarter of the samples, is the estimator of
// the simulator workloads' timing metrics: there this host's noise is
// one-sided (a slow period only ever adds time) and lasts seconds to tens of
// seconds, so the low tail of K identical episodes is far steadier than
// their mean or median.  The pkg/sync workloads use Median instead (see
// workload.estimate).  The quartiles are reported beside either so a reader
// can see the spread that was discarded.
type summary struct {
	N      int     `json:"n"`
	Fast   float64 `json:"fastest_quarter_mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Mean   float64 `json:"mean"`
}

// estimate picks a run's value for a timing metric from the summary of its
// per-episode samples.  The pkg/sync workloads have two-sided noise: about one
// episode in eight runs 3.5 times *faster* than the rest (1.44 M operations
// in 0.13 s instead of 0.49 s — the speed of the same program at GOMAXPROCS 1,
// so the two threads were not really running side by side), in clusters that
// span several processes.  A fast-tail estimator would report whichever mode
// happened to supply four episodes; the median reports the common one.
func (w workload) estimate(s summary) float64 {
	if w.kind == kindSynclib {
		return s.Median
	}
	return s.Fast
}

// fastCount is how many samples the fastest quarter holds: n/4 rounded up,
// so K not divisible by 4 still averages at least its share and K < 4
// degrades to the minimum.
func fastCount(n int) int { return (n + 3) / 4 }

// summarize computes the summary of samples where smaller is faster
// (seconds, nanoseconds).  It does not modify samples.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		N:      n,
		Fast:   mean(s[:fastCount(n)]),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Mean:   mean(s),
	}
}

func mean(s []float64) float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quantile interpolates linearly between the order statistics of the sorted
// slice s (the "inclusive" method: q=0 is the minimum, q=1 the maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
