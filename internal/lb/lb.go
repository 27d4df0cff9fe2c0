// Package lb computes lower bounds on the optimal schedule length.
//
// The central bound is Lemma 1 of the paper: if k adjacent processors
// start with S total work, any schedule (even a centralized one) has length
// at least sqrt((k-1)^2/4 + S) - (k-1)/2, because in L steps the k interior
// processors do at most kL work and processors at distance j outside the
// window can absorb at most L-j units each, for an extra L(L-1). We use the
// integer-exact form: the smallest L with L^2 + (k-1)L >= S.
//
// Additional bounds: ceil(n/m) (total work over total capacity), p_max for
// arbitrary job sizes (§4.2), and the capacitated window bound of Lemma 10
// (no k consecutive processors may start with more than (k+2)L jobs when
// links carry one job per step).
//
// Both window bounds are maximized over every circular window without
// enumerating windows. With c = L-1, a window certifies a bound of at
// least L exactly when its excess over c, the sum of x_j - c across it,
// is above c(c-1) (Lemma 1) or 2c (Lemma 10). The largest excess of any
// window is one maximum-circular-subarray pass, so each bound is a binary
// search over L of O(m) passes: O(m log n) for total work n.
package lb

import (
	"math"

	"ringsched/internal/instance"
)

// windowLB returns the smallest integer L >= 0 with L^2 + (k-1)L >= S,
// i.e. the Lemma 1 bound for a window of k processors holding S work.
func windowLB(k int, S int64) int64 {
	if S <= 0 {
		return 0
	}
	b := float64(k - 1)
	// Solve L^2 + bL - S = 0 and round down, then fix up any floating error.
	L := int64(math.Floor((-b + math.Sqrt(b*b+4*float64(S))) / 2))
	if L < 0 {
		L = 0
	}
	for L*L+int64(k-1)*L >= S && L > 0 {
		L--
	}
	for L*L+int64(k-1)*L < S {
		L++
	}
	return L
}

// WindowBoundAt returns the Lemma 1 bound certified by the window of k
// processors starting at index i (wrapping around the ring). works is the
// per-processor work vector x_0..x_{m-1}.
func WindowBoundAt(works []int64, i, k int) int64 {
	m := len(works)
	if k < 1 || k > m {
		panic("lb: window length out of range")
	}
	var S int64
	for h := 0; h < k; h++ {
		S += works[(i+h)%m]
	}
	return windowLB(k, S)
}

// WindowBound returns the best (largest) Lemma 1 bound over all windows of
// all lengths 1..m, including windows that wrap around the ring: the
// largest L for which some window's excess over L-1 is above
// (L-1)(L-2). No window holds more than the total work n, so L lies in
// [0, windowLB(1, n)].
func WindowBound(works []int64) int64 {
	n := sum(works)
	return largest(windowLB(1, n), func(c int64) bool {
		return maxExcess(works, n, c) > c*(c-1)
	})
}

// BestSparse is Best.
//
// Deprecated: WindowBound is exact and O(m log n) at every ring size; use Best.
func BestSparse(in instance.Instance) int64 { return Best(in) }

// AverageBound returns ceil(n/m): m processors can complete at most m units
// of work per step.
func AverageBound(in instance.Instance) int64 {
	n := in.TotalWork()
	m := int64(in.M)
	return (n + m - 1) / m
}

// PMaxBound returns the largest single job size; no schedule can beat the
// longest job since jobs run without preemption on one processor.
func PMaxBound(in instance.Instance) int64 { return in.PMax() }

// Best returns the strongest lower bound we can certify for the
// uncapacitated model: max of the Lemma 1 window bound, ceil(n/m), and
// p_max.
func Best(in instance.Instance) int64 {
	b := WindowBound(in.Works())
	if a := AverageBound(in); a > b {
		b = a
	}
	if p := PMaxBound(in); p > b {
		b = p
	}
	return b
}

// CapWindowBoundAt returns the Lemma 10 bound for the window of k
// processors starting at i under unit-capacity links: the smallest L with
// (k+2)L >= S. (The window can shed at most 2L jobs over its two boundary
// links and process kL internally.)
func CapWindowBoundAt(works []int64, i, k int) int64 {
	m := len(works)
	if k < 1 || k > m {
		panic("lb: window length out of range")
	}
	var S int64
	for h := 0; h < k; h++ {
		S += works[(i+h)%m]
	}
	d := int64(k + 2)
	return (S + d - 1) / d
}

// CapWindowBound maximizes the Lemma 10 bound over all windows: the
// largest L for which some window's excess over L-1 is above 2(L-1).
// A window of k >= 1 processors holds at most n, so L lies in
// [0, ceil(n/3)].
func CapWindowBound(works []int64) int64 {
	n := sum(works)
	return largest((n+2)/3, func(c int64) bool {
		return maxExcess(works, n, c) > 2*c
	})
}

// Capacitated returns the strongest lower bound for the unit-capacity-link
// model: every uncapacitated bound still applies (capacitated schedules are
// a subset), plus the Lemma 10 window bound.
func Capacitated(in instance.Instance) int64 {
	b := Best(in)
	if c := CapWindowBound(in.Works()); c > b {
		b = c
	}
	return b
}

// MaxWindowWork returns M_k = L^2 + (k-1)L, the most work k adjacent
// processors can hold at time 0 in any instance whose optimum is L
// (Lemma 2). The §3 adversary and its tests build instances from this.
func MaxWindowWork(k int, L int64) int64 {
	return L*L + int64(k-1)*L
}

// largest returns the largest L in [0, hi] that certifies(L-1) accepts,
// given that it accepts every L up to some point and none after.
func largest(hi int64, certifies func(c int64) bool) int64 {
	var lo int64
	for lo < hi {
		if mid := hi - (hi-lo)/2; certifies(mid - 1) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// maxExcess returns the largest sum of x_j - c over a circular window of
// works, the empty window (0) included, for total work n >= 1 and c >= 0.
// Every sum it forms stays within 2n of zero, whatever m*c is.
func maxExcess(works []int64, n, c int64) int64 {
	m := int64(len(works))
	var best, run int64
	if c > (n-1)/m {
		// The whole ring's excess n - m*c is at most 0, so a run longer
		// than the ring is never worth more than the window it
		// contains after dropping one lap. Kadane over two laps is
		// exact, and a run that hits 0 in the second lap cannot wrap.
		for lap := 0; lap < 2; lap++ {
			for _, x := range works {
				run = max(0, run+x-c)
				best = max(best, run)
				if lap == 1 && run == 0 {
					return best
				}
			}
		}
		return best
	}
	// m*c < n, which bounds every partial sum. A window that
	// wraps is the ring minus a (possibly empty) linear gap.
	var gap, minGap int64
	for _, x := range works {
		v := x - c
		run = max(0, run+v)
		best = max(best, run)
		gap = min(0, gap+v)
		minGap = min(minGap, gap)
	}
	return max(best, n-m*c-minGap)
}

func sum(works []int64) int64 {
	var n int64
	for _, x := range works {
		n += x
	}
	return n
}
