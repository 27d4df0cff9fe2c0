// Package online extends the paper's model with release times: jobs
// arrive at their processors over time instead of all being present at
// time 0. This is the dynamic setting of Awerbuch, Kutten and Peleg's
// competitive job scheduling (reference [4] of the paper, the only prior
// distributed work the authors compare against) restricted to the ring,
// and it matches the §1 motivation of processing batches of transactions
// as they show up.
//
// The package is an extension, not a reproduction: the paper treats only
// the static problem. It provides
//
//   - the arrival model (Batch / Instance),
//   - an online distributed algorithm (algorithm A's queue rule, which
//     needs no notion of "time 0" and therefore adapts unchanged: every
//     processor tops its queue up to c·sqrt(work that has passed it),
//     shipping fresh arrivals onward in buckets),
//   - release-aware lower bounds, and
//   - an exact clairvoyant optimum: a job released at time r on
//     processor i can be processed at j only in slots >= r + d(i,j), so
//     the staircase-flow argument of internal/opt applies with entry
//     level r + d instead of d.
package online

import (
	"fmt"
	"sort"

	"ringsched/internal/lb"
	"ringsched/internal/ring"
)

// Batch is a group of unit jobs released together.
type Batch struct {
	Time  int64 // release time (>= 0); available at the START of step Time
	Proc  int   // processor where the jobs appear
	Count int64
}

// Instance is an online ring scheduling instance.
type Instance struct {
	M       int
	Batches []Batch
}

// NewInstance returns a validated online instance; batches are sorted by
// release time (stable for equal times).
func NewInstance(m int, batches []Batch) (Instance, error) {
	if m < 1 {
		return Instance{}, fmt.Errorf("online: ring size %d", m)
	}
	bs := append([]Batch(nil), batches...)
	for _, b := range bs {
		if b.Time < 0 || b.Count < 0 || b.Proc < 0 || b.Proc >= m {
			return Instance{}, fmt.Errorf("online: bad batch %+v", b)
		}
	}
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].Time < bs[j].Time })
	return Instance{M: m, Batches: bs}, nil
}

// TotalWork returns the total number of jobs across all batches.
func (in Instance) TotalWork() int64 {
	var n int64
	for _, b := range in.Batches {
		n += b.Count
	}
	return n
}

// MaxRelease returns the latest release time (0 for empty instances).
func (in Instance) MaxRelease() int64 {
	var r int64
	for _, b := range in.Batches {
		if b.Time > r {
			r = b.Time
		}
	}
	return r
}

// LowerBound certifies a lower bound on the clairvoyant optimum: for
// every release threshold r, the jobs released at or after r form a
// static sub-instance that cannot start before r, so the optimum is at
// least r plus that sub-instance's Lemma 1 bound. The thresholds worth
// checking are exactly the distinct release times. Walking them latest
// first, each threshold adds its batches to one work vector, so d
// distinct release times cost O(b log b) for b batches plus d window
// bounds of O(m log n) each.
func LowerBound(in Instance) int64 {
	bs := append([]Batch(nil), in.Batches...)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Time > bs[j].Time })
	works := make([]int64, in.M)
	m := int64(in.M)
	var n, best int64
	for i := 0; i < len(bs); {
		r := bs[i].Time
		for ; i < len(bs) && bs[i].Time == r; i++ {
			works[bs[i].Proc] += bs[i].Count
			n += bs[i].Count
		}
		static := max(lb.WindowBound(works), (n+m-1)/m)
		best = max(best, r+static)
	}
	return best
}

func (in Instance) topology() ring.Topology { return ring.New(in.M) }
