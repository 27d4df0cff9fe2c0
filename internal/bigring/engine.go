// Package bigring is the allocation-free big-ring engine: a
// struct-of-arrays execution of the six bucket algorithms (A1/B1/C1,
// A2/B2/C2), built for rings of a million processors and beyond. Steps
// run either as the classic sequential alive-list sweep or — with
// Options.Workers > 1 — as a span-partitioned fork/join over persistent
// worker goroutines (parallel.go) that produces bit-identical results at
// every worker count.
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
//     at every step, so a step is two flat sweeps (clockwise first, then
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
// parallel per-processor and per-bucket arrays sized once in New; alive
// buckets are compacted with swap-removal, which is order-safe within a
// direction because of the distinct-processor property. After New, a run
// performs no heap allocation: Step is allocation-free in steady state
// (proven by testing.AllocsPerRun in the package tests) and Reset
// rewinds the engine for another run without allocating.
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
	"ringsched/internal/ring"
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
	// step, so a collector turns the O(alive buckets) hot loop back
	// into an O(m) one; a nil Collector costs one pointer comparison
	// per visit and per step. A collector also forces sequential
	// stepping whatever Workers says: the telemetry stream is ordered.
	Collector metrics.Collector
	// Workers selects the stepping mode. 1 runs the classic sequential
	// alive-list sweep; n > 1 partitions the ring into min(n, m)
	// contiguous processor spans stepped by persistent worker
	// goroutines (see parallel.go — results are bit-identical to
	// sequential at every worker count, and Step stays allocation-free
	// after the first call). 0 picks GOMAXPROCS, but stays sequential
	// below ParallelMinM processors where the per-step fork/join and
	// the span scans cost more than they save. Parallel engines hold
	// goroutines until Close (Run closes for you).
	Workers int
}

// ParallelMinM is the ring size below which Workers == 0 stays
// sequential: the parallel mode scans every span slot each step (O(m)
// per step, SIMD-friendly, instead of the sequential sweep's O(alive)),
// which only pays off on big rings. An explicit Workers > 1 is always
// honored, whatever m.
const ParallelMinM = 1 << 16

// Engine runs one instance under one bucket algorithm. Create it with
// New, drive it with Step (or Run), read the outcome with Result, and
// reuse it with Reset. An Engine is not safe for concurrent use.
type Engine struct {
	m     int
	nb    int // bucket index space: m (unidirectional) or 2m
	par   bucket.Params
	name  string
	total int64

	// Arenas backing every mutable array below; Reset clears them
	// wholesale instead of re-allocating.
	arenaI []int64
	arenaF []float64

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

	// Per-bucket state (length nb): clockwise bucket of origin o is
	// index o, counter-clockwise is m+o.
	content  []int64
	perInt   []int64
	seen     []int64   // variants B and C
	dropInt  []int64   // variant C shadow: integral drops (I1)
	frac     []float64 // variant C shadow: fractional contents
	dropFrac []float64 // variant C shadow: fractional drops
	best     []float64 // variant B: monotone Lemma 1 target

	// Alive bucket lists, swap-removed on death. Safe because within a
	// direction all alive buckets sit on distinct processors, so the
	// sweep order within one list is immaterial.
	aliveCW  []int32
	aliveCCW []int32

	t        int64
	steps    int64
	maxCur   int64 // running makespan: max busy-until over all deposits
	jobHops  int64
	messages int64
	maxSteps int64
	done     bool
	err      error

	mc      metrics.Collector
	mcPools []int64 // reused per-step pool snapshot (collector only)

	// Parallel stepping state (workers > 1; see parallel.go). spanAt
	// has workers+1 entries: worker w owns processors
	// [spanAt[w], spanAt[w+1]). accs are the padded per-worker
	// accumulators merged after each step; cmds/joins are the
	// persistent fork/join channels, spawned lazily on the first
	// parallel Step and released by Close.
	workers int
	spanAt  []int
	accs    []parAcc
	cmds    []chan parJob
	joins   chan struct{}
	spawned bool
	closed  bool
}

// New validates the instance and builds an engine positioned before
// step 0. It performs all allocation the run will ever need: two arenas
// carved into the variant's arrays, plus the alive lists.
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
		nb:    nb,
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

	e.x = append([]int64(nil), in.Unit...)

	// Stepping mode: a collector needs the ordered sequential stream,
	// auto (0) stays sequential below ParallelMinM, and the span count
	// never exceeds m (each span must own at least one processor).
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if m < ParallelMinM {
			w = 1
		}
	}
	if e.mc != nil {
		w = 1
	}
	if w > m {
		w = m
	}
	e.workers = w
	if w > 1 {
		e.spanAt = make([]int, w+1)
		for i := 0; i <= w; i++ {
			e.spanAt[i] = i * m / w
		}
		e.accs = make([]parAcc, w)
		e.cmds = make([]chan parJob, w-1)
		e.joins = make(chan struct{}, w-1)
	} else {
		// The alive lists exist only on the sequential path; parallel
		// stepping tracks liveness through content[b] > 0 instead.
		e.aliveCW = make([]int32, 0, m)
		if par.Bidirectional {
			e.aliveCCW = make([]int32, 0, m)
		}
	}
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
	e.aliveCW = e.aliveCW[:0]
	if e.aliveCCW != nil {
		e.aliveCCW = e.aliveCCW[:0]
	}
	for i := range e.accs {
		e.accs[i] = parAcc{}
	}
	e.t, e.steps, e.maxCur, e.jobHops, e.messages = 0, 0, 0, 0, 0
	e.done = false
	e.err = nil
}

// Workers reports the engine's effective span count: 1 means the
// sequential alive-list sweep, n > 1 means n-span parallel stepping.
func (e *Engine) Workers() int { return e.workers }

// Close releases the persistent span workers a parallel engine spawned.
// Idempotent and safe on a sequential engine (where it is a no-op); the
// engine must not be stepped again afterwards. Run closes for you —
// call Close only when driving New/Step directly.
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

	if t == 0 {
		if e.mc != nil {
			e.mc.Begin(metrics.RunInfo{
				Algorithm: e.name, M: e.m, Speed: 1, Transit: 1, TotalWork: e.total,
			})
		}
		if e.workers > 1 {
			e.forkJoin(jobStart, 0)
		} else {
			e.start()
		}
	} else if e.workers > 1 {
		// Two barriered phases: every clockwise visit of step t lands
		// before any counter-clockwise one, exactly the sequential
		// (and generic-engine) delivery order.
		e.forkJoin(jobSweepCW, t)
		if e.par.Bidirectional {
			e.forkJoin(jobSweepCCW, t)
		}
	} else {
		e.aliveCW = e.sweep(e.aliveCW, true, t)
		if e.aliveCCW != nil {
			e.aliveCCW = e.sweep(e.aliveCCW, false, t)
		}
	}

	var alive int
	if e.workers > 1 {
		alive = e.mergeAccs()
	} else {
		alive = len(e.aliveCW) + len(e.aliveCCW)
	}
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

// deposit drops w units at processor j during step t: the lazy rate-1
// server absorbs it, and the makespan, intake and peak-pool accounting
// update in place. Pool occupancy at the generic engine's measurement
// point (phase 2 of step t, after all of the step's deliveries) is
// cur-t, and taking the max after every deposit of the step yields
// exactly that value.
func (e *Engine) deposit(j int, t, w int64) {
	c := e.cur[j]
	if c < t {
		c = t
	}
	c += w
	e.cur[j] = c
	e.aInt[j] += w
	if c > e.maxCur {
		e.maxCur = c
	}
	if p := c - t; p > e.maxPool[j] {
		e.maxPool[j] = p
	}
}

// dropQuota computes the variant's drop quota for bucket b visiting
// processor j at step t carrying w, mutating the same per-bucket and
// per-processor state the generic nodes would. arriving distinguishes a
// hop-time visit from the launch visit at step 0 (where the bucket's
// segment knowledge already includes the origin's load and variant A
// has already counted it as passed). The floating-point expressions are
// copied verbatim from internal/bucket's dropAndForward so results stay
// bit-identical.
func (e *Engine) dropQuota(b, j int, w, t int64, arriving bool) int64 {
	switch {
	case e.par.Variant == bucket.VariantA:
		if arriving {
			e.passed[j] += w
		}
		target := e.par.C * math.Sqrt(float64(e.passed[j]))
		pool := e.cur[j] - t
		if pool < 0 {
			pool = 0
		}
		return int64(target) - pool
	case e.par.Variant == bucket.VariantB:
		s := e.seen[b]
		if arriving {
			s += e.x[j]
			e.seen[b] = s
		}
		k := int(t) + 1
		if tb := e.par.C * bucket.Lemma1Target(k, s); tb > e.best[b] {
			e.best[b] = tb
		}
		return int64(e.best[b]) - e.aInt[j]
	case e.par.DirectRounding:
		s := e.seen[b]
		if arriving {
			s += e.x[j]
			e.seen[b] = s
		}
		target := e.par.C * math.Sqrt(float64(s))
		return int64(target) - e.aInt[j]
	default: // variant C, §4.1 integral algorithm with the I1/I2 shadow
		s := e.seen[b]
		if arriving {
			s += e.x[j]
			e.seen[b] = s
		}
		target := e.par.C * math.Sqrt(float64(s))
		d := math.Min(e.frac[b], math.Max(0, target-e.aFrac[j]))
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

// visit applies one bucket visit: quota, deposit, and the decision to
// keep travelling. It returns the forwarded remainder (0 kills the
// bucket).
func (e *Engine) visit(b, j int, w, t int64, arriving bool) int64 {
	var quota int64
	if t >= int64(e.m) {
		// Wrap-around balancing (Lemma 5): every bucket is back at its
		// origin at t == m, knows the whole ring's remaining load, and
		// drops ceil(remaining/m) per processor from then on. The §4.1
		// fractional shadow is write-only once balancing starts, so its
		// bookkeeping is skipped entirely.
		if t == int64(e.m) {
			e.perInt[b] = (w + int64(e.m) - 1) / int64(e.m)
		}
		quota = e.perInt[b]
	} else {
		quota = e.dropQuota(b, j, w, t, arriving)
	}
	if quota < 0 {
		quota = 0
	}
	drop := w
	if quota < drop {
		drop = quota
	}
	if drop > 0 {
		e.deposit(j, t, drop)
		if e.dropInt != nil {
			e.dropInt[b] += drop
		}
	}
	return w - drop
}

// start runs step 0: every loaded processor launches its bucket(s),
// dropping at the origin first exactly as the generic nodes' Start
// does (clockwise before counter-clockwise on bidirectional runs, so
// the second bucket sees the first one's deposit).
func (e *Engine) start() {
	m := e.m
	if m == 1 {
		// Degenerate ring: nothing to balance, keep everything.
		if w := e.x[0]; w > 0 {
			e.deposit(0, 0, w)
		}
		return
	}
	variantA := e.par.Variant == bucket.VariantA
	for i := 0; i < m; i++ {
		x := e.x[i]
		if variantA {
			e.passed[i] = x
		}
		if x == 0 {
			continue
		}
		if !e.par.Bidirectional {
			e.seed(i, x, float64(x))
			e.launch(i, i, x, ring.Clockwise)
			continue
		}
		// Bidirectional: the payload splits in half (clockwise gets the
		// odd unit); both buckets know the full origin load x and each
		// fractional shadow bucket carries half of it.
		cwWork := (x + 1) / 2
		e.seed(i, x, float64(x)/2)
		e.seed(m+i, x, float64(x)/2)
		e.launch(i, i, cwWork, ring.Clockwise)
		e.launch(m+i, i, x-cwWork, ring.CounterClockwise)
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

// launch performs bucket b's step-0 visit at its origin and enrolls the
// remainder in the direction's alive list. A zero-work visit still runs
// the drop rule (the fractional shadow of a bidirectional variant C
// bucket mutates processor state even when the integral half is empty),
// matching the generic Start exactly.
func (e *Engine) launch(b, origin int, w int64, dir ring.Direction) {
	rest := e.visit(b, origin, w, 0, false)
	if rest == 0 {
		return
	}
	e.content[b] = rest
	e.jobHops += rest
	if e.mc != nil {
		e.mc.Send(0, origin, dir, rest, rest)
	}
	if dir == ring.Clockwise {
		e.aliveCW = append(e.aliveCW, int32(b))
	} else {
		e.aliveCCW = append(e.aliveCCW, int32(b))
	}
}

// sweep advances every alive bucket of one direction through step t:
// delivery at its affine position, the drop rule, and either a forward
// (content updated in place) or death (swap-removed). This is the whole
// per-step cost of the engine — O(alive buckets), no allocation.
func (e *Engine) sweep(alive []int32, cw bool, t int64) []int32 {
	m := e.m
	tm := int(t % int64(m))
	dir := ring.Clockwise
	if !cw {
		dir = ring.CounterClockwise
	}
	for idx := 0; idx < len(alive); {
		b := int(alive[idx])
		var j int
		if cw {
			j = b + tm
			if j >= m {
				j -= m
			}
		} else {
			j = (b - m) - tm
			if j < 0 {
				j += m
			}
		}
		w := e.content[b]
		e.messages++
		if e.mc != nil {
			e.mc.Deliver(t, j, dir, w, w)
		}
		rest := e.visit(b, j, w, t, true)
		if rest > 0 {
			e.content[b] = rest
			e.jobHops += rest
			if e.mc != nil {
				e.mc.Send(t, j, dir, rest, rest)
			}
			idx++
		} else {
			last := len(alive) - 1
			alive[idx] = alive[last]
			alive = alive[:last]
		}
	}
	return alive
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
	for _, b := range e.aliveCW {
		inTransit += e.content[b]
	}
	for _, b := range e.aliveCCW {
		inTransit += e.content[b]
	}
	e.mc.Step(metrics.StepInfo{
		T: t, Pools: e.mcPools, Processed: int64(busy), Busy: busy, InTransit: inTransit,
	})
}
