// Package bigring is the allocation-free big-ring engine: a
// struct-of-arrays execution of the six bucket algorithms (A1/B1/C1,
// A2/B2/C2), built for rings of a million processors and beyond. A step
// runs as span kernels over contiguous processor spans (parallel.go)
// that visit only the live buckets, found through one occupancy bitmap
// per direction. The coordinator runs the whole ring inline while few
// buckets are live and forks the spans to persistent worker goroutines
// once many are; results are bit-identical at every span count, so that
// choice is free on every step.
//
// The generic engine in internal/sim models arbitrary algorithms: every
// bucket is a heap-allocated packet whose meta struct is copied on each
// hop, every processor owns a pool and a node object, and every step
// scans all m processors. That generality is exactly what the bucket
// algorithms on fault-free unit instances do not need:
//
//   - every bucket is born at step 0, so after t steps the clockwise
//     bucket from origin o sits at processor (o+t) mod m and the
//     counter-clockwise one at (o-t) mod m — positions are affine in t
//     and never stored;
//   - within one direction, buckets occupy pairwise distinct processors
//     at every step, so a step is two flat passes (clockwise first, then
//     counter-clockwise, matching the generic engine's delivery order)
//     over dense arrays indexed by bucket;
//   - a processor at speed 1 is a rate-1 server: its pool never needs
//     materializing, only a busy-until counter cur[j], updated per
//     deposit as cur = max(cur, t) + w. Pool occupancy at step t is
//     max(0, cur-t), the makespan is max_j cur[j], and per-processor
//     Processed/BusySteps equal total deposits;
//   - wrap-around balancing (Lemma 5) starts uniformly at t == m, and
//     its fractional shadow bookkeeping is write-only from then on, so
//     the balance path is a single per-bucket quota.
//
// State lives in two arenas (one []int64, one []float64) carved into
// parallel per-processor and per-bucket arrays sized once in New, plus
// the two occupancy bitmaps: a bit is set when its bucket survives
// launch and cleared when it dies. After New, a run performs no heap
// allocation: Step is allocation-free in steady state (proven by
// testing.AllocsPerRun in the package tests) and Reset rewinds the
// engine for another run without allocating.
//
// The engine reproduces internal/sim bit for bit on its domain — same
// drop quotas (the floating-point expressions are copied verbatim from
// internal/bucket, which exports Lemma1Target for exactly this reason),
// same phase order, same accounting — and the differential tests in this
// package hold Makespan, Steps, JobHops, Messages, BusySteps, MaxPool
// and Processed equal against the pool engine. Out-of-scope features
// (sized jobs, fault injection, capacitated links, Speed/Transit
// scaling, event traces) stay on internal/sim; New refuses instances it
// cannot run exactly.
package bigring

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/metrics"
	"ringsched/internal/sim"
)

// ErrUnsupported reports an instance or option outside the big-ring
// engine's domain (sized jobs). Such runs need the generic pool engine
// in internal/sim, which models them natively.
var ErrUnsupported = errors.New("bigring: unsupported by the big-ring engine")

// Options configure a big-ring run. The zero value is a fault-free,
// telemetry-free run with the same generous step limit internal/sim
// uses.
type Options struct {
	// MaxSteps aborts runaway runs, exactly as sim.Options.MaxSteps:
	// zero picks the default 8*(n+m)+64.
	MaxSteps int64
	// Collector, when non-nil, receives the same telemetry stream the
	// pool engine emits (Begin, per-visit Deliver/Send, one Step
	// snapshot per step, End). The snapshot costs one O(m) pass per
	// step, so a collector turns the O(live buckets) hot loop back into
	// an O(m) one; a nil Collector costs one pointer comparison per
	// visit and per step. A collector also forces one span whatever
	// Workers says: the telemetry stream is ordered.
	Collector metrics.Collector
	// Workers is the span count: n partitions the ring into min(n, m)
	// contiguous processor spans, and 0 picks GOMAXPROCS (capped at m
	// the same way). A step forks its spans to persistent worker
	// goroutines only while many buckets are live; otherwise the
	// coordinator runs the whole ring inline. Results are bit-identical
	// at every span count, and Step stays allocation-free after the
	// first fork. An engine that forked holds goroutines until Close
	// (Run closes for you).
	Workers int
}

// Engine runs one instance under one bucket algorithm. Create it with
// New, drive it with Step (or Run), read the outcome with Result, and
// reuse it with Reset. An Engine is not safe for concurrent use.
type Engine struct {
	m      int
	par    bucket.Params
	name   string
	total  int64
	loaded int // processors with work: the live count before step 0

	// Arenas backing every mutable array below; Reset clears them
	// wholesale instead of re-allocating.
	arenaI []int64
	arenaF []float64
	arenaB []uint64

	// Per-processor state (length m). x is the immutable instance load;
	// aInt is cumulative integral intake (== Processed == BusySteps at
	// speed 1); cur is the lazy rate-1 server's busy-until step; maxPool
	// tracks the peak pool occupancy the generic engine would observe at
	// its phase-2 measurement point.
	x       []int64
	aInt    []int64
	cur     []int64
	maxPool []int64
	passed  []int64   // variant A: work seen passing, incl. own x
	aFrac   []float64 // variant C shadow: fractional intake

	// Per-bucket state (length m, or 2m when bidirectional): clockwise
	// bucket of origin o is index o, counter-clockwise is m+o. A dead
	// bucket's content is 0.
	content  []int64
	perInt   []int64
	seen     []int64   // variants B and C
	dropInt  []int64   // variant C shadow: integral drops (I1)
	frac     []float64 // variant C shadow: fractional contents
	dropFrac []float64 // variant C shadow: fractional drops
	best     []float64 // variant B: monotone Lemma 1 target

	// live holds one occupancy bitmap per direction (clockwise, then
	// counter-clockwise on bidirectional runs): bit o of live[d] is set
	// while bucket d*m+o carries work.
	live [2][]uint64

	t        int64
	steps    int64
	alive    int   // live buckets after the last step; decides the next fan-out
	maxCur   int64 // running makespan: max busy-until over all deposits
	jobHops  int64
	messages int64
	maxSteps int64
	done     bool
	err      error

	mc      metrics.Collector
	mcPools []int64 // reused per-step pool snapshot (collector only)

	// Span state (see parallel.go). spanAt has workers+1 entries: span
	// w owns processors [spanAt[w], spanAt[w+1]). accs are the padded
	// per-span accumulators merged after each step; an inline step
	// uses accs[0] alone. cmds/joins are the persistent fork/join
	// channels, spawned lazily on the first fork and released by Close.
	workers int
	spanAt  []int
	accs    []parAcc
	cmds    []chan parJob
	joins   chan struct{}
	spawned bool
	closed  bool
}

// New validates the instance and builds an engine positioned before
// step 0. It performs all allocation the run will ever need: three
// arenas carved into the variant's arrays and the occupancy bitmaps.
func New(in instance.Instance, spec bucket.Spec, opts Options) (*Engine, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.IsUnit() {
		return nil, fmt.Errorf("%w: sized jobs need the pool engine (internal/sim)", ErrUnsupported)
	}
	par := spec.Params()
	m := in.M
	nb := m
	if par.Bidirectional {
		nb = 2 * m
	}
	e := &Engine{
		m:     m,
		par:   par,
		name:  spec.Name(),
		total: in.TotalWork(),
		mc:    opts.Collector,
	}
	e.maxSteps = opts.MaxSteps
	if e.maxSteps == 0 {
		e.maxSteps = 8*(e.total+int64(m)) + 64
	}

	// Size the arenas: every variant needs aInt/cur/maxPool per
	// processor and content/perInt per bucket; the rest is per variant.
	nInt := 3*m + 2*nb
	nFloat := 0
	switch {
	case par.Variant == bucket.VariantA:
		nInt += m // passed
	case par.Variant == bucket.VariantB:
		nInt += nb   // seen
		nFloat += nb // best
	case par.DirectRounding:
		nInt += nb // seen
	default: // variant C with the §4.1 I1/I2 shadow
		nInt += 2 * nb     // seen, dropInt
		nFloat += m + 2*nb // aFrac, frac, dropFrac
	}
	e.arenaI = make([]int64, nInt)
	e.arenaF = make([]float64, nFloat)
	ai, af := e.arenaI, e.arenaF
	carveI := func(n int) []int64 { s := ai[:n:n]; ai = ai[n:]; return s }
	carveF := func(n int) []float64 { s := af[:n:n]; af = af[n:]; return s }
	e.aInt = carveI(m)
	e.cur = carveI(m)
	e.maxPool = carveI(m)
	e.content = carveI(nb)
	e.perInt = carveI(nb)
	switch {
	case par.Variant == bucket.VariantA:
		e.passed = carveI(m)
	case par.Variant == bucket.VariantB:
		e.seen = carveI(nb)
		e.best = carveF(nb)
	case par.DirectRounding:
		e.seen = carveI(nb)
	default:
		e.seen = carveI(nb)
		e.dropInt = carveI(nb)
		e.aFrac = carveF(m)
		e.frac = carveF(nb)
		e.dropFrac = carveF(nb)
	}
	words := (m + 63) / 64
	e.arenaB = make([]uint64, nb/m*words)
	for d := 0; d < nb/m; d++ {
		e.live[d] = e.arenaB[d*words : (d+1)*words : (d+1)*words]
	}

	e.x = append([]int64(nil), in.Unit...)
	for _, x := range e.x {
		if x > 0 {
			e.loaded++
		}
	}
	e.alive = e.loaded

	// Span count: a collector needs the ordered one-span stream, and no
	// span may be empty.
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if e.mc != nil {
		w = 1
	}
	w = min(w, m)
	e.workers = w
	e.spanAt = make([]int, w+1)
	for i := 0; i <= w; i++ {
		e.spanAt[i] = i * m / w
	}
	e.accs = make([]parAcc, w)
	e.cmds = make([]chan parJob, w-1)
	e.joins = make(chan struct{}, w-1)
	if e.mc != nil {
		e.mcPools = make([]int64, m)
	}
	return e, nil
}

// Reset rewinds the engine to before step 0 so the same instance can be
// run again. It allocates nothing: the arenas are cleared in place.
func (e *Engine) Reset() {
	clear(e.arenaI)
	clear(e.arenaF)
	clear(e.arenaB)
	clear(e.accs)
	e.t, e.steps, e.maxCur, e.jobHops, e.messages = 0, 0, 0, 0, 0
	e.alive = e.loaded
	e.done = false
	e.err = nil
}

// Workers reports the engine's span count.
func (e *Engine) Workers() int { return e.workers }

// Close releases the span workers an engine spawned on its first fork.
// Idempotent and safe on an engine that never forked (where it is a
// no-op); the engine must not be stepped again afterwards. Run closes
// for you — call Close only when driving New/Step directly.
func (e *Engine) Close() {
	if e == nil || e.closed {
		return
	}
	e.closed = true
	if e.spawned {
		for _, c := range e.cmds {
			close(c)
		}
	}
}

// Done reports whether the run has completed (including by error).
func (e *Engine) Done() bool { return e.done }

// Err returns the error the run stopped with, if any.
func (e *Engine) Err() error { return e.err }

// Now returns the next step to be simulated.
func (e *Engine) Now() int64 { return e.t }

// Result returns the run's outcome in the pool engine's Result shape.
// It is meaningful once Done reports true. The per-processor slices are
// freshly allocated copies; at speed 1 on unit jobs BusySteps and
// Processed both equal the cumulative intake.
func (e *Engine) Result() (sim.Result, error) {
	return sim.Result{
		Algorithm: e.name,
		Makespan:  e.maxCur,
		Steps:     e.steps,
		JobHops:   e.jobHops,
		Messages:  e.messages,
		BusySteps: append([]int64(nil), e.aInt...),
		Processed: append([]int64(nil), e.aInt...),
		MaxPool:   append([]int64(nil), e.maxPool...),
	}, e.err
}

// Run drives a fresh engine to completion: the one-call equivalent of
// sim.Run on the big-ring engine's domain.
func Run(in instance.Instance, spec bucket.Spec, opts Options) (sim.Result, error) {
	e, err := New(in, spec, opts)
	if err != nil {
		return sim.Result{}, err
	}
	defer e.Close()
	for !e.Step() {
	}
	return e.Result()
}

// Step simulates one step and reports whether the run has completed.
// With a nil Collector it allocates nothing and, once every bucket has
// died, fast-forwards across the pool-drain tail (those steps only
// decrement pools, which the lazy server already accounts for). With a
// collector the tail is walked step by step so every per-step snapshot
// is emitted, exactly as the pool engine does.
func (e *Engine) Step() bool {
	if e.done {
		return true
	}
	t := e.t
	if t > e.maxSteps {
		e.err = fmt.Errorf("%w (t=%d, alg=%s)", sim.ErrNotQuiescent, t, e.name)
		e.done = true
		return true
	}

	// The previous step's live count (step 0: the loaded processors)
	// decides whether this step forks; few live buckets cost less than
	// the fork/join.
	fork := e.workers > 1 && e.alive >= fanOutMin
	if t == 0 {
		if e.mc != nil {
			e.mc.Begin(metrics.RunInfo{
				Algorithm: e.name, M: e.m, Speed: 1, Transit: 1, TotalWork: e.total,
			})
		}
		e.phase(jobStart, 0, fork)
	} else {
		// Two barriered phases: every clockwise visit of step t lands
		// before any counter-clockwise one, the generic engine's
		// delivery order.
		e.phase(jobCW, t, fork)
		if e.par.Bidirectional {
			e.phase(jobCCW, t, fork)
		}
	}

	alive := e.mergeAccs()
	e.alive = alive
	if e.mc != nil {
		e.emitStep(t)
	}
	if alive == 0 {
		if e.mc == nil && e.maxCur-1 > t {
			// Drain tail: no bucket will ever move again, so the only
			// remaining events are pools draining toward maxCur. Jump —
			// but never past the step-limit check the pool engine would
			// apply at the top of each skipped step.
			if e.maxCur-1 > e.maxSteps {
				e.t = e.maxSteps + 1
				return false
			}
			t = e.maxCur - 1
		}
		if e.maxCur <= t+1 {
			e.t = t
			e.steps = t + 1
			e.done = true
			if e.mc != nil {
				e.mc.End()
			}
			return true
		}
	}
	e.t = t + 1
	return false
}

// launchQuota is the variant's drop quota for bucket b's step-0 visit
// at its origin j: the bucket's segment knowledge already includes the
// origin's load and variant A has already counted it as passed. The
// floating-point expressions are copied from internal/bucket's
// dropAndForward so results stay bit-identical; its math.Min and
// math.Max become the builtin min and max, which the Go spec gives the
// same NaN and signed-zero rules and which compile inline.
func (e *Engine) launchQuota(b, j int) int64 {
	switch {
	case e.par.Variant == bucket.VariantA:
		// At step 0 the pool occupancy max(0, cur-t) is cur itself.
		target := e.par.C * math.Sqrt(float64(e.passed[j]))
		return int64(target) - e.cur[j]
	case e.par.Variant == bucket.VariantB:
		if tb := e.par.C * bucket.Lemma1Target(1, e.seen[b]); tb > e.best[b] {
			e.best[b] = tb
		}
		return int64(e.best[b]) - e.aInt[j]
	case e.par.DirectRounding:
		target := e.par.C * math.Sqrt(float64(e.seen[b]))
		return int64(target) - e.aInt[j]
	default: // variant C, §4.1 integral algorithm with the I1/I2 shadow
		target := e.par.C * math.Sqrt(float64(e.seen[b]))
		d := min(e.frac[b], max(0, target-e.aFrac[j]))
		e.frac[b] -= d
		e.dropFrac[b] += d
		e.aFrac[j] += d
		i1 := int64(math.Ceil(e.dropFrac[b])) - e.dropInt[b]
		i2 := 1 + int64(math.Ceil(e.aFrac[j])) - e.aInt[j]
		if i2 < i1 {
			return i2
		}
		return i1
	}
}

// seed initializes a newborn bucket's segment knowledge and fractional
// shadow for the variants that carry them.
func (e *Engine) seed(b int, seen int64, frac float64) {
	if e.seen != nil {
		e.seen[b] = seen
	}
	if e.frac != nil {
		e.frac[b] = frac
	}
}

// emitStep hands the collector the same end-of-step snapshot the pool
// engine computes: per-processor pool occupancy after processing, the
// busy count (at speed 1 on unit jobs, also the units processed), and
// the payload still travelling.
func (e *Engine) emitStep(t int64) {
	var busy int
	t1 := t + 1
	for i, c := range e.cur {
		p := c - t1
		if p < 0 {
			p = 0
		}
		e.mcPools[i] = p
		if c > t {
			busy++
		}
	}
	var inTransit int64
	for _, w := range e.content {
		inTransit += w
	}
	e.mc.Step(metrics.StepInfo{
		T: t, Pools: e.mcPools, Processed: int64(busy), Busy: busy, InTransit: inTransit,
	})
}
