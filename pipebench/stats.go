package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample: the smallest value with at least p % of the
// sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The small slack keeps binary rounding of p (99.9 is not exact) from
// pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond its nearest rank, with its value. ok is false when even
// the median has fewer than ten samples beyond it.
func tail(sorted []float64) (p, v float64, ok bool) {
	for _, q := range tailCandidates {
		if len(sorted)-nearestRank(len(sorted), q) >= 10 {
			return q, percentile(sorted, q), true
		}
	}
	return 0, 0, false
}

// latency summarises one group of timings: the sample count, the median
// and the reported tail.
type latency struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
}

// summarize sorts a copy of xs and reports its median and tail. Without
// enough samples for any tail the tail is the maximum, at percentile 100.
func summarize(xs []float64) latency {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	l := latency{N: len(s), P50: percentile(s, 50)}
	if p, v, ok := tail(s); ok {
		l.TailP, l.Tail = p, v
	} else if len(s) > 0 {
		l.TailP, l.Tail = 100, s[len(s)-1]
	}
	return l
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// writeAmp is the bytes all merges wrote divided by the final store's
// bytes: 1 when one merge builds the store, growing with every merge that
// rewrites the blocks already stored.
func writeAmp(mergeBytes []int64, final int64) float64 {
	if final <= 0 {
		return 0
	}
	var sum int64
	for _, b := range mergeBytes {
		sum += b
	}
	return float64(sum) / float64(final)
}
