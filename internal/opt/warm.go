package opt

import (
	"time"

	"ringsched/internal/flow"
	"ringsched/internal/metrics"
	"ringsched/internal/ring"
)

// This file is the warm-start engine behind the binary-search solvers:
// one arena-allocated flow network per search whose arc structure is
// built once and whose L-dependent capacities are rescaled per probe
// (flow.Network.Reset + SetCap), a monotone-feasibility memo so no probe
// at a dominated L ever reaches a network, and bracket seeding from a
// caller-supplied feasible upper bound (Limits.UpperHint). Every probe
// feeds the process-wide metrics.Solver counters.

// probeMemo caches monotone feasibility verdicts: once some L is known
// feasible every L' >= L is feasible, and once some L is known infeasible
// every L' <= L is infeasible. It is seeded with the certified lower
// bound (bound-1 is infeasible by definition).
type probeMemo struct {
	maxInfeasible int64 // largest L known infeasible
	minFeasible   int64 // smallest L known feasible (valid iff haveFeasible)
	haveFeasible  bool
}

// lookup reports a cached verdict for L, if one dominates it.
func (m *probeMemo) lookup(L int64) (feasible, known bool) {
	if L <= m.maxInfeasible {
		return false, true
	}
	if m.haveFeasible && L >= m.minFeasible {
		return true, true
	}
	return false, false
}

// record folds a fresh verdict into the memo.
func (m *probeMemo) record(L int64, feasible bool) {
	if feasible {
		if !m.haveFeasible || L < m.minFeasible {
			m.minFeasible, m.haveFeasible = L, true
		}
	} else if L > m.maxInfeasible {
		m.maxInfeasible = L
	}
}

// estMetricArcs mirrors MetricFeasible's arc estimate for chain depth
// dcap (chains, entry arcs, source arcs).
func estMetricArcs(m, nSources, dcap int) int {
	return m*(dcap+1) + nSources*m + nSources
}

// metricNet is the warm-start arena for the staircase feasibility
// network of MetricFeasible: the arc structure for chain depth dcap is
// built once, and each probe at a new L only rescales the chain
// capacities (L at depth 0, max(0, L-d) at depth d — a zero capacity
// blocks entries whose distance exceeds L-1, so one network decides
// feasibility exactly for every L whose min(L-1, maxDist) <= dcap).
type metricNet struct {
	g        *flow.Network
	m        int
	dcap     int
	n        int64 // total work
	chainIDs []int // arc id of chain arc (j,d) at index j*(dcap+1)+d; d=0 is (j,0)->T
}

// newMetricNet builds the arena. Chain capacities start at zero; the
// first feasible() call sets them for its L.
func newMetricNet(works []int64, dist func(i, j int) int, dcap int) *metricNet {
	m := len(works)
	var sources []int
	var n int64
	for i, x := range works {
		if x > 0 {
			sources = append(sources, i)
			n += x
		}
	}
	chainBase := 2
	numChain := m * (dcap + 1)
	g := flow.NewNetwork(chainBase + numChain + len(sources))
	g.Reserve(estMetricArcs(m, len(sources), dcap))
	S := 0
	chain := func(j, d int) int { return chainBase + j*(dcap+1) + d }

	w := &metricNet{g: g, m: m, dcap: dcap, n: n, chainIDs: make([]int, numChain)}
	for j := 0; j < m; j++ {
		w.chainIDs[j*(dcap+1)] = g.AddArc(chain(j, 0), 1, 0)
		for d := 1; d <= dcap; d++ {
			w.chainIDs[j*(dcap+1)+d] = g.AddArc(chain(j, d), chain(j, d-1), 0)
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
	metrics.Solver.Inc(metrics.SolverColdBuild)
	return w
}

// feasible decides a length-L schedule on the warm network (L >= 1).
func (w *metricNet) feasible(L int64) bool {
	w.g.Reset(true)
	for j := 0; j < w.m; j++ {
		base := j * (w.dcap + 1)
		w.g.SetCap(w.chainIDs[base], L)
		for d := 1; d <= w.dcap; d++ {
			c := L - int64(d)
			if c < 0 {
				c = 0
			}
			w.g.SetCap(w.chainIDs[base+d], c)
		}
	}
	metrics.Solver.Inc(metrics.SolverWarmReuse)
	return w.g.Solve(0, 1) == w.n
}

// metricSearch finds the smallest feasible L for an arbitrary metric:
// `bound` is a certified lower bound (bound-1 infeasible), Limits may
// carry a feasible upper hint. The search probes the bound first (it is
// the optimum whenever the bound is tight, the common case in the §6
// suite), verifies the hint with one probe, gallops only when neither
// settles the bracket, then binary-searches — all against one warm
// network, with monotone verdicts memoized.
func metricSearch(works []int64, dist func(i, j int) int, maxDist int, bound int64, lim Limits) Result {
	start := time.Now()
	res := Result{Method: "flow"}
	m := len(works)
	var n int64
	nSources := 0
	for _, x := range works {
		if x > 0 {
			nSources++
			n += x
		}
	}
	if n == 0 {
		return Result{Length: 0, Exact: true, Method: "closed-form"}
	}
	if bound < 1 {
		bound = 1
	}
	memo := probeMemo{maxInfeasible: bound - 1}
	maxArcs := lim.maxArcs()

	// The warm arena's chain depth follows the known upper bracket when a
	// hint is available (the adversarial L=10 cases on m=1000 shrink the
	// network ~50x), saturating at the metric's diameter. A probe beyond
	// the built depth rebuilds once at full depth; an arc budget the
	// arena cannot fit falls back to cold per-probe builds, preserving
	// the pre-warm-start MaxArcs semantics.
	var warm *metricNet
	buildWarm := func(hiKnown int64) {
		warm = nil
		if lim.NoWarmStart {
			return
		}
		dcap := maxDist
		if hiKnown > 0 && hiKnown-1 < int64(maxDist) {
			dcap = int(hiKnown - 1)
			if dcap < 0 {
				dcap = 0
			}
		}
		if estMetricArcs(m, nSources, dcap) > maxArcs {
			return
		}
		warm = newMetricNet(works, dist, dcap)
	}
	buildWarm(lim.UpperHint)

	fallback := func() Result {
		return Result{Length: bound, Exact: false, Method: "lb-fallback", FlowCalls: res.FlowCalls}
	}
	probe := func(L int64) (feasible, fits bool) {
		if f, known := memo.lookup(L); known {
			metrics.Solver.Inc(metrics.SolverMemoHit)
			return f, true
		}
		if warm != nil && L-1 > int64(warm.dcap) && warm.dcap < maxDist {
			buildWarm(0) // deepen to the diameter (nil if over the arc budget)
		}
		var ok bool
		if warm != nil {
			ok = warm.feasible(L)
			metrics.Solver.Inc(metrics.SolverProbe)
		} else {
			var fit bool
			ok, fit = MetricFeasible(works, dist, maxDist, L, maxArcs)
			if !fit {
				return false, false
			}
		}
		res.FlowCalls++
		memo.record(L, ok)
		return ok, true
	}

	if lim.expired(start) {
		return fallback()
	}
	f, fits := probe(bound)
	if !fits {
		return fallback()
	}
	if f {
		res.Length, res.Exact = bound, true
		return res
	}
	lo := bound

	var hi int64
	if h := lim.UpperHint; h > bound {
		if lim.expired(start) {
			return fallback()
		}
		f, fits = probe(h)
		if !fits {
			return fallback()
		}
		if f {
			hi = h
		} else {
			// An infeasible hint is a caller bug; stay correct and gallop
			// upward from it.
			lo = h
		}
	}
	if hi == 0 {
		step := int64(1)
		cand := lo + step
		for {
			if lim.expired(start) {
				return fallback()
			}
			if cand > n {
				cand = n // L = n is always feasible (everything processed at home)
			}
			f, fits = probe(cand)
			if !fits {
				return fallback()
			}
			if f {
				hi = cand
				break
			}
			if cand == n {
				return fallback() // unreachable; defensive
			}
			lo = cand
			step *= 2
			cand += step
		}
	}
	// Binary search in (lo, hi]: lo infeasible, hi feasible.
	for hi-lo > 1 {
		if lim.expired(start) {
			return fallback()
		}
		mid := lo + (hi-lo)/2
		f, fits = probe(mid)
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

// capNet is the warm-start arena for the §7 time-expanded network: nodes
// (i,t) for a horizon of `steps`, move and hold arcs built once, and the
// per-probe rescale only retunes the process arcs ((i,t)->T capacity 1
// for t < L, else 0) — flow into the dead region beyond L cannot reach
// the sink, so one horizon-`steps` network decides every L <= steps.
type capNet struct {
	g       *flow.Network
	m       int
	steps   int
	n       int64
	procIDs []int // arc id of process arc (i,t) at index i*steps+t
}

// estCapArcs mirrors feasibleCap's arc estimate.
func estCapArcs(m, steps int) int { return m*steps*4 + m }

func newCapNet(works []int64, m, steps int) *capNet {
	top := ring.New(m)
	g := flow.NewNetwork(2 + m*steps)
	g.Reserve(estCapArcs(m, steps))
	S := 0
	node := func(i, t int) int { return 2 + i*steps + t }

	w := &capNet{g: g, m: m, steps: steps, procIDs: make([]int, m*steps)}
	for i, x := range works {
		if x > 0 {
			g.AddArc(S, node(i, 0), x)
			w.n += x
		}
	}
	for i := 0; i < m; i++ {
		for t := 0; t < steps; t++ {
			w.procIDs[i*steps+t] = g.AddArc(node(i, t), 1, 1)
			if t+1 < steps {
				g.AddArc(node(i, t), node(i, t+1), flow.Inf) // hold
				g.AddArc(node(i, t), node(top.Step(i, ring.Clockwise), t+1), 1)
				g.AddArc(node(i, t), node(top.Step(i, ring.CounterClockwise), t+1), 1)
			}
		}
	}
	metrics.Solver.Inc(metrics.SolverColdBuild)
	return w
}

// feasible decides a length-L schedule on the warm network (1 <= L <= steps).
func (w *capNet) feasible(L int64) bool {
	w.g.Reset(true)
	for i := 0; i < w.m; i++ {
		for t := 0; t < w.steps; t++ {
			c := int64(0)
			if int64(t) < L {
				c = 1
			}
			w.g.SetCap(w.procIDs[i*w.steps+t], c)
		}
	}
	metrics.Solver.Inc(metrics.SolverWarmReuse)
	return w.g.Solve(0, 1) == w.n
}
