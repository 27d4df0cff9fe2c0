// Package opt computes exact optimal schedule lengths for ring scheduling
// instances, the quantities the paper's §6 experiments score against.
//
// The authors used an (unpublished) m²-space dynamic program; we substitute
// an equivalent exact method (see DESIGN.md §5): binary-search the schedule
// length L and decide feasibility with a maximum-flow computation.
//
// Uncapacitated links (§2 model): a unit job originating at processor i can
// be processed at processor j only during steps d(i,j)..L-1, so processor
// j's intake obeys the staircase "at most L-d jobs from distance >= d, for
// every d" — and by Hall's condition for nested slot intervals, the
// staircase is also sufficient. The flow network encodes each processor's
// staircase as a chain gadget: entry node (j,d) per distance class, chain
// arc (j,d)->(j,d-1) with capacity L-d, and (j,0)->sink with capacity L.
// L is feasible iff the max flow equals the total number of jobs.
//
// Unit-capacity links (§7 model): feasibility is decided on a time-expanded
// network — node (i,t) per processor and step, hold arcs (i,t)->(i,t+1)
// (unbounded), move arcs (i,t)->(i±1,t+1) with capacity 1, and process arcs
// (i,t)->sink with capacity 1.
//
// Both solvers fall back to the certified lower bound when the instance
// exceeds the configured size budget, exactly as the paper fell back to
// "the lower bound of Lemma 1 or ceil(n/m)" for its largest cases; Result
// records whether the value is exact.
package opt

import (
	"context"
	"errors"
	"time"

	"ringsched/internal/flow"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
	"ringsched/internal/ring"
)

// ErrLimitExceeded reports that a computation was refused or degraded
// because it exceeded a configured limit: callers that need an exact
// optimum (internal/serve's require_exact, for one) wrap it when a
// Result comes back with Exact=false, and the serving layer also wraps
// it for requests larger than its admission caps. The root package
// re-exports it as ringsched.ErrLimitExceeded.
var ErrLimitExceeded = errors.New("limit exceeded")

// Result is a solved (or bounded) optimum.
type Result struct {
	// Length is the exact optimum when Exact, otherwise the best
	// certified lower bound.
	Length int64
	// Exact reports whether Length is the true optimum.
	Exact bool
	// Method describes how Length was obtained: "closed-form", "flow",
	// "time-expanded-flow" or "lb-fallback".
	Method string
	// Feasibility flow computations performed.
	FlowCalls int
}

// Limits bounds the solver's effort.
type Limits struct {
	// MaxArcs caps the feasibility network size; beyond it the solver
	// falls back to the lower bound. Zero means 8 million.
	MaxArcs int
	// Deadline, when positive, is the wall-clock budget. It is checked
	// between feasibility tests (a single test is never interrupted).
	Deadline time.Duration
	// UpperHint, when positive, is a schedule length the caller believes
	// feasible (typically the makespan of a schedule it already computed)
	// used to seed the binary search's upper bracket instead of
	// galloping. The hint is verified with one probe; an infeasible hint
	// costs that probe and the search proceeds correctly without it.
	UpperHint int64
	// Ctx, when non-nil, cancels the search early: a cancelled (or
	// deadline-exceeded) context forces the lower-bound fallback at the
	// next probe boundary, like an expired Deadline.
	Ctx context.Context
	// NoWarmStart disables reuse of one arena-allocated network across
	// the search's feasibility probes, rebuilding per probe instead.
	// Exists for the cold/warm ablation (BenchmarkSolverWarmStart);
	// verdicts are identical either way.
	NoWarmStart bool
}

func (l Limits) maxArcs() int {
	if l.MaxArcs == 0 {
		return 8_000_000
	}
	return l.MaxArcs
}

// expired reports whether the budget is exhausted: the wall-clock
// deadline passed since start, or the context (when set) is done.
func (l Limits) expired(start time.Time) bool {
	if l.Ctx != nil && l.Ctx.Err() != nil {
		return true
	}
	return l.Deadline > 0 && time.Since(start) > l.Deadline
}

// Uncapacitated returns the optimal schedule length for unit jobs on a
// ring with unbounded link capacity. Sized instances are not supported
// (the problem is NP-hard already on one machine); it panics on them.
func Uncapacitated(in instance.Instance, lim Limits) Result {
	if !in.IsUnit() {
		panic("opt: Uncapacitated requires a unit-job instance")
	}
	works := in.Unit
	m := in.M
	n := in.TotalWork()
	if n == 0 {
		return Result{Length: 0, Exact: true, Method: "closed-form"}
	}
	if m == 1 {
		return Result{Length: n, Exact: true, Method: "closed-form"}
	}
	bound := lb.Best(in)

	// Single non-empty processor on a ring wide enough that work cannot
	// collide with itself: OPT = ceil(sqrt(W)) has a closed form (the two
	// growing arms absorb L^2 work in L steps). Detect and shortcut.
	if L, ok := singlePileClosedForm(works, m); ok {
		return Result{Length: L, Exact: true, Method: "closed-form"}
	}

	// Feasibility is monotone in L; metricSearch probes the bound, seeds
	// the bracket from Limits.UpperHint when one is given, gallops
	// otherwise, and binary-searches — all against one warm network.
	top := ring.New(m)
	return metricSearch(works, top.Dist, top.MaxDist(), bound, lim)
}

// singlePileClosedForm detects a single loaded processor whose optimal
// schedule has the closed form min{L : L^2 >= W} (valid when the ring is
// wide enough that the two arms never meet: 2L-1 <= m).
func singlePileClosedForm(works []int64, m int) (int64, bool) {
	var W int64
	count := 0
	for _, x := range works {
		if x > 0 {
			count++
			W = x
		}
	}
	if count != 1 {
		return 0, false
	}
	var L int64
	for L*L < W {
		L++
	}
	if 2*L-1 <= int64(m) {
		return L, true
	}
	return 0, false
}

// MetricFeasible decides whether a length-L schedule exists for unit jobs
// on an arbitrary network whose shortest-path metric is dist (maxDist is
// its diameter): a job from i can occupy processing slots dist(i,j)..L-1
// at j, so feasibility is the staircase flow described in the package
// comment. It is exact for any metric with unbounded link capacities —
// internal/torus reuses it for the §8 mesh exploration.
func MetricFeasible(works []int64, dist func(i, j int) int, maxDist int, L int64, maxArcs int) (feasible, fits bool) {
	m := len(works)
	if L <= 0 {
		for _, x := range works {
			if x > 0 {
				return false, true
			}
		}
		return true, true
	}
	dcap := int(L - 1)
	if dcap > maxDist {
		dcap = maxDist
	}

	var sources []int
	var n int64
	for i, x := range works {
		if x > 0 {
			sources = append(sources, i)
			n += x
		}
	}

	// Arc estimate: chains m*(dcap+1), entries |sources|*m, source arcs.
	if estMetricArcs(m, len(sources), dcap) > maxArcs {
		return false, false
	}
	metrics.Solver.Inc(metrics.SolverColdBuild)
	metrics.Solver.Inc(metrics.SolverProbe)

	// Node layout: 0 = S, 1 = T, chain nodes 2 + j*(dcap+1) + d, then one
	// node per source appended.
	chainBase := 2
	numChain := m * (dcap + 1)
	g := flow.NewNetwork(chainBase + numChain + len(sources))
	S, T := 0, 1
	chain := func(j, d int) int { return chainBase + j*(dcap+1) + d }

	for j := 0; j < m; j++ {
		g.AddArc(chain(j, 0), T, L)
		for d := 1; d <= dcap; d++ {
			g.AddArc(chain(j, d), chain(j, d-1), L-int64(d))
		}
	}
	for si, i := range sources {
		src := chainBase + numChain + si
		g.AddArc(S, src, works[i])
		for j := 0; j < m; j++ {
			d := dist(i, j)
			if d <= dcap {
				g.AddArc(src, chain(j, d), works[i])
			}
		}
	}
	return g.Solve(S, T) == n, true
}

// MetricOptimal binary-searches the smallest feasible L for an arbitrary
// metric, between the certified bound lb (exclusive lower limit: lb-1 must
// be infeasible) and hi (inclusive upper limit: must be feasible). The hi
// bracket is carried as an upper hint, so the search runs warm-started
// (one network, capacity rescaling, memoized monotone verdicts).
func MetricOptimal(works []int64, dist func(i, j int) int, maxDist int, lbV, hi int64, lim Limits) Result {
	if lim.UpperHint == 0 || hi < lim.UpperHint {
		lim.UpperHint = hi
	}
	return metricSearch(works, dist, maxDist, lbV, lim)
}

// Capacitated returns the optimal schedule length when every directed link
// carries at most one job per step (§7 model), via the time-expanded
// network. Unit jobs only.
func Capacitated(in instance.Instance, lim Limits) Result {
	if !in.IsUnit() {
		panic("opt: Capacitated requires a unit-job instance")
	}
	start := time.Now()
	works := in.Unit
	m := in.M
	n := in.TotalWork()
	if n == 0 {
		return Result{Length: 0, Exact: true, Method: "closed-form"}
	}
	if m == 1 {
		return Result{Length: n, Exact: true, Method: "closed-form"}
	}
	bound := lb.Capacitated(in)
	if bound < 1 {
		bound = 1
	}
	// The no-passing schedule is always legal: OPT <= max_i x_i.
	var noPass int64
	for _, x := range works {
		if x > noPass {
			noPass = x
		}
	}
	if noPass < bound {
		noPass = bound
	}
	// A caller-supplied hint (e.g. the §7 algorithm's makespan) usually
	// tightens the provable no-passing bracket a lot — and, because the
	// warm network's horizon is the initial hi, shrinks the arena too.
	// The hint is verified below; noPass needs no probe.
	hi := noPass
	hintNeedsCheck := false
	if h := lim.UpperHint; h > 0 && h < hi {
		if h < bound {
			h = bound
		}
		hi, hintNeedsCheck = h, true
	}

	res := Result{Method: "time-expanded-flow"}
	memo := probeMemo{maxInfeasible: bound - 1}
	maxArcs := lim.maxArcs()
	fallback := func() Result {
		return Result{Length: bound, Exact: false, Method: "lb-fallback", FlowCalls: res.FlowCalls}
	}

	// Warm arena at the bracket's horizon; larger horizons (only needed
	// if the hint fails verification) rebuild once. Over the arc budget,
	// fall back to cold per-probe builds with the pre-warm-start MaxArcs
	// semantics.
	var warm *capNet
	buildWarm := func(horizon int64) {
		warm = nil
		if lim.NoWarmStart || horizon <= 0 || estCapArcs(m, int(horizon)) > maxArcs {
			return
		}
		warm = newCapNet(works, m, int(horizon))
	}
	buildWarm(hi)

	probe := func(L int64) (feasible, fits bool) {
		if f, known := memo.lookup(L); known {
			metrics.Solver.Inc(metrics.SolverMemoHit)
			return f, true
		}
		if warm != nil && L > int64(warm.steps) {
			buildWarm(L)
		}
		var ok bool
		if warm != nil {
			ok = warm.feasible(L)
			metrics.Solver.Inc(metrics.SolverProbe)
		} else {
			var fit bool
			ok, fit = feasibleCap(works, m, L, maxArcs)
			if !fit {
				return false, false
			}
		}
		res.FlowCalls++
		memo.record(L, ok)
		return ok, true
	}

	if hintNeedsCheck {
		if lim.expired(start) {
			return fallback()
		}
		f, fits := probe(hi)
		if !fits {
			return fallback()
		}
		if !f {
			// An infeasible hint is a caller bug; recover with the
			// provable bracket.
			hi = noPass
			buildWarm(hi)
		}
	}

	lo := bound - 1 // infeasible by definition of the lower bound
	// Binary search (lo, hi]: hi feasible, lo infeasible.
	for hi-lo > 1 {
		if lim.expired(start) {
			return fallback()
		}
		mid := lo + (hi-lo)/2
		f, fits := probe(mid)
		if !fits {
			return fallback()
		}
		if f {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Length, res.Exact = hi, true
	return res
}

// feasibleCap builds the time-expanded network for length L.
func feasibleCap(works []int64, m int, L int64, maxArcs int) (feasible, fits bool) {
	if L <= 0 {
		for _, x := range works {
			if x > 0 {
				return false, true
			}
		}
		return true, true
	}
	steps := int(L)
	estArcs := m*steps*4 + m
	if estArcs > maxArcs {
		return false, false
	}
	top := ring.New(m)
	// Nodes: 0 = S, 1 = T, then (i,t) = 2 + i*steps + t.
	g := flow.NewNetwork(2 + m*steps)
	S, T := 0, 1
	node := func(i, t int) int { return 2 + i*steps + t }

	var n int64
	for i, x := range works {
		if x > 0 {
			g.AddArc(S, node(i, 0), x)
			n += x
		}
	}
	for i := 0; i < m; i++ {
		for t := 0; t < steps; t++ {
			g.AddArc(node(i, t), T, 1) // process during step t
			if t+1 < steps {
				g.AddArc(node(i, t), node(i, t+1), flow.Inf) // hold
				g.AddArc(node(i, t), node(top.Step(i, ring.Clockwise), t+1), 1)
				g.AddArc(node(i, t), node(top.Step(i, ring.CounterClockwise), t+1), 1)
			}
		}
	}
	return g.Solve(S, T) == n, true
}

// BruteForceUncapacitated exhaustively minimizes the makespan over all
// assignments of jobs to processors (uncapacitated model). It is
// exponential — use only to cross-validate the flow solver on tiny
// instances (m^n assignments).
func BruteForceUncapacitated(in instance.Instance) int64 {
	if !in.IsUnit() {
		panic("opt: brute force requires unit jobs")
	}
	m := in.M
	top := ring.New(m)
	// Flatten jobs to their origins.
	var origins []int
	for i, x := range in.Unit {
		for k := int64(0); k < x; k++ {
			origins = append(origins, i)
		}
	}
	if len(origins) == 0 {
		return 0
	}
	if len(origins) > 10 || m > 6 {
		panic("opt: instance too large for brute force")
	}

	assign := make([]int, len(origins))
	best := int64(1 << 62)
	var rec func(idx int)
	rec = func(idx int) {
		if idx == len(origins) {
			if ms := assignmentMakespan(top, origins, assign); ms < best {
				best = ms
			}
			return
		}
		for j := 0; j < m; j++ {
			assign[idx] = j
			rec(idx + 1)
		}
	}
	rec(0)
	return best
}

// assignmentMakespan computes the makespan of a fixed job->processor
// assignment: per processor, sort assigned jobs by distance descending and
// schedule latest-first; L_j = max_k (d_k + k + 1).
func assignmentMakespan(top ring.Topology, origins, assign []int) int64 {
	perProc := make(map[int][]int)
	for idx, j := range assign {
		d := top.Dist(origins[idx], j)
		perProc[j] = append(perProc[j], d)
	}
	var ms int64
	for _, ds := range perProc {
		// insertion sort descending (tiny slices)
		for i := 1; i < len(ds); i++ {
			for k := i; k > 0 && ds[k] > ds[k-1]; k-- {
				ds[k], ds[k-1] = ds[k-1], ds[k]
			}
		}
		for k, d := range ds {
			if v := int64(d) + int64(k) + 1; v > ms {
				ms = v
			}
		}
	}
	return ms
}
