package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder lists the percentiles latency_tail_ms may report, highest
// first. A run reports the highest one, at most its workload's tailTop,
// that has at least minBeyond samples above it.
var tailLadder = []float64{99, 98, 95, 90, 80, 75, 50}

const minBeyond = 10

// tail picks the tail percentile of sorted latencies: its value, the
// percentile and how many samples lie beyond it.
func tail(sorted []time.Duration, top float64) (time.Duration, float64, int) {
	var v time.Duration
	var pct float64
	var beyond int
	for _, p := range tailLadder {
		if p > top {
			continue
		}
		v, beyond = nearestRank(sorted, p)
		pct = p
		if beyond >= minBeyond {
			break
		}
	}
	return v, pct, beyond
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule and the number of samples above that rank.
func nearestRank(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	k = min(max(k, 0), len(sorted)-1)
	return sorted[k], len(sorted) - 1 - k
}

// median of xs (xs is not modified): the mean of the middle pair for an
// even count.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mean of ds.
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
