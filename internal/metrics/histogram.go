package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-layout latency histogram built for the serving
// hot path: observing a duration is two or three atomic adds into a
// bucket chosen by a bit-length computation — no locks, no allocation,
// no floating point. Every Histogram in the process shares one bucket
// layout, so snapshots from different servers (or different processes
// of one deployment) merge by plain counter addition and the merged
// quantiles stay sound: a histogram only ever knows which bucket a
// sample fell in, and merging cannot move a sample across a boundary.
//
// The layout is log-spaced with ratio 2: bucket i covers
// (1.024µs·2^(i-1), 1.024µs·2^i] for i = 0..27 (bucket 0 starts at 0),
// topping out at ~137s, with one overflow bucket above. Log spacing
// gives a constant relative quantile error (a reported quantile is off
// by at most 2× — in practice far less with interpolation), which is
// the right currency for latencies spanning microseconds to seconds.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [NumHistBuckets + 1]atomic.Int64 // +1 = overflow (+Inf)
}

// NumHistBuckets is the number of finite buckets; one +Inf overflow
// bucket follows.
const NumHistBuckets = 28

// histBase is the upper bound of bucket 0 in nanoseconds. 1024ns
// (≈1.024µs) keeps every boundary a power of two, so bucket selection
// is a single bits.Len64.
const histBase = 1024

// HistBucketBound returns the inclusive upper bound of finite bucket i.
func HistBucketBound(i int) time.Duration {
	return time.Duration(histBase << uint(i))
}

// histBucketIdx maps a duration to its bucket index (NumHistBuckets =
// overflow).
func histBucketIdx(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= histBase {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - 10 // smallest i with ns ≤ 1024<<i
	if i >= NumHistBuckets {
		return NumHistBuckets
	}
	return i
}

// Observe records one duration. Safe for concurrent use; never
// allocates.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[histBucketIdx(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// Snapshot returns a point-in-time copy of the histogram. Under
// concurrent Observe calls the copy is not a single atomic cut, but
// every counted sample lands in exactly one bucket, so bucket sums and
// quantile bounds remain valid for the samples it does include.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNs = h.sumNs.Load()
	return s
}

// HistogramSnapshot is a frozen histogram: mergeable, queryable, and
// serializable. Count is derived from the buckets so that merged
// snapshots stay internally consistent.
type HistogramSnapshot struct {
	Count   int64                     `json:"count"`
	SumNs   int64                     `json:"sumNs"`
	Buckets [NumHistBuckets + 1]int64 `json:"buckets"`
}

// Merge returns the histogram of the union of both sample sets.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, SumNs: s.SumNs + o.SumNs}
	for i := range out.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// rank returns the 1-based rank of quantile q over Count samples
// (ceil(q·n), clamped to [1, n]).
func (s HistogramSnapshot) rank(q float64) int64 {
	r := int64(math.Ceil(q * float64(s.Count)))
	if r < 1 {
		r = 1
	}
	if r > s.Count {
		r = s.Count
	}
	return r
}

// QuantileBounds returns the half-open bucket interval (lo, hi] that is
// guaranteed to contain the q-th quantile of the observed samples — the
// histogram's exact knowledge, free of interpolation error. hi is +Inf
// (as a duration, math.MaxInt64) for samples in the overflow bucket;
// both are 0 when the histogram is empty.
func (s HistogramSnapshot) QuantileBounds(q float64) (lo, hi time.Duration) {
	if s.Count == 0 {
		return 0, 0
	}
	r := s.rank(q)
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= r {
			if i > 0 {
				lo = HistBucketBound(i - 1)
			}
			if i == NumHistBuckets {
				return lo, time.Duration(math.MaxInt64)
			}
			return lo, HistBucketBound(i)
		}
	}
	return 0, 0 // unreachable: cum == Count ≥ r
}

// Quantile estimates the q-th quantile by linear interpolation within
// the bucket QuantileBounds identifies (overflow-bucket samples report
// the last finite boundary). The true sample quantile always lies
// within that bucket.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	r := s.rank(q)
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= r {
			var lo time.Duration
			if i > 0 {
				lo = HistBucketBound(i - 1)
			}
			if i == NumHistBuckets {
				return lo
			}
			hi := HistBucketBound(i)
			frac := float64(r-cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return 0
}

// Mean returns the exact sample mean (the sum is tracked losslessly in
// nanoseconds).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.Count)
}

// QuantileSummary is the fixed percentile digest exported on
// /v1/statusz. Times are milliseconds for human eyes; the raw buckets
// travel via /metrics for anything that wants to aggregate.
type QuantileSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// Summary digests the snapshot into the standard percentile set.
func (s HistogramSnapshot) Summary() QuantileSummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return QuantileSummary{
		Count:  s.Count,
		MeanMs: ms(s.Mean()),
		P50Ms:  ms(s.Quantile(0.50)),
		P90Ms:  ms(s.Quantile(0.90)),
		P99Ms:  ms(s.Quantile(0.99)),
	}
}
