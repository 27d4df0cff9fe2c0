package online

import (
	"context"
	"errors"
)

// Params tune the online diffusion algorithm.
type Params struct {
	// C scales the queue target c·sqrt(passed); zero means 1.0 (the
	// empirically best constant for algorithm A in the static study).
	C float64
	// Bidirectional splits fresh arrivals into buckets travelling both
	// ways (the A2 configuration). Default off = A1.
	Bidirectional bool
	// MigrationBudget caps how many jobs of each released batch may
	// leave their home processor (the bounded-migration trade-off of
	// Albers–Hellwig's online makespan study): the excess over the
	// A-rule keep target normally ships in buckets; with a budget set,
	// at most MigrationBudget jobs per batch ship and the rest stays
	// queued locally. 0 (or negative) means unlimited — the classic
	// algorithm, bit-identical to the pre-budget behavior.
	MigrationBudget int64
}

func (p Params) c() float64 {
	if p.C <= 0 {
		return 1.0
	}
	return p.C
}

// Result reports an online run.
type Result struct {
	// Makespan is the completion time of the last job.
	Makespan int64
	// MaxFlowTime is the largest (completion - release) over batches,
	// measured batch-granular: the completion of a batch is the step
	// after its last job finishes anywhere.
	MaxFlowTime int64
	Steps       int64
	JobHops     int64
	Processed   []int64
	// Migrated counts jobs that left their home processor at release
	// time (shipped in a bucket instead of joining the local queue).
	Migrated int64
}

// ErrNotQuiescent mirrors sim.ErrNotQuiescent.
var ErrNotQuiescent = errors.New("online: simulation did not quiesce")

// bucket is travelling work, tagged with the latest release time among
// the jobs it carries (for flow-time accounting).
type bucket struct {
	pos      int
	dir      int
	content  int64
	hops     int
	balance  bool
	per      int64
	released int64
}

// Run simulates the online diffusion algorithm: arrivals join their
// processor's queue; whatever exceeds the c·sqrt(passed) target is
// shipped onward in buckets; passing buckets top queues up to the same
// target (algorithm A's rule). Buckets that lap the ring switch to
// Lemma 5 balancing. Everything is local and requires no global clock
// agreement beyond the synchronous steps of the base model.
//
// Run is a thin wrapper over the resumable Engine: it appends the whole
// arrival sequence up front and steps to quiescence. Incremental
// callers use NewEngine/Append/StepUntil directly and get bit-identical
// results at every pause point.
func Run(in Instance, p Params) (Result, error) {
	return RunContext(context.TODO(), in, p)
}

// RunContext is Run under ctx: stepping stops when ctx ends, and the
// context error comes back wrapped.
func RunContext(ctx context.Context, in Instance, p Params) (Result, error) {
	e, err := NewEngine(in.M, p)
	if err != nil {
		return Result{}, err
	}
	if err := e.Append(in.Batches...); err != nil {
		return Result{}, err
	}
	err = e.StepQuiescent(ctx)
	return e.Snapshot().Result, err
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
