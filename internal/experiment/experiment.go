// Package experiment reproduces the paper's §6 simulation study: run the
// six algorithms A1, B1, C1, A2, B2, C2 over the 51 test cases of Table 1,
// score each run against the exact optimum (or, where the solver exceeds
// its budget, against the best certified lower bound — the paper did the
// same and called those factors "somewhat pessimistic"), and render the
// per-algorithm approximation-factor histograms of Figures 2–7.
package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ringsched/internal/bucket"
	"ringsched/internal/engine"
	"ringsched/internal/fault"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
	"ringsched/internal/stats"
	"ringsched/internal/workload"
)

// AlgorithmNames lists the §6 algorithms in figure order (Figures 2–7).
var AlgorithmNames = []string{"A1", "B1", "C1", "A2", "B2", "C2"}

// Run is one algorithm's outcome on one case.
type Run struct {
	Makespan int64
	// Factor is Makespan divided by the optimum when it is known exactly,
	// otherwise by the certified lower bound (an upper bound on the true
	// factor).
	Factor   float64
	JobHops  int64
	Messages int64
	// Telemetry is the run's observability summary (Options.Metrics).
	Telemetry *Telemetry
	// Faults is the fault-injection accounting when the suite ran under
	// Options.Faults (nil otherwise).
	Faults *metrics.FaultReport
	// Err records a per-run failure — most importantly MaxSteps
	// exhaustion, which would otherwise be indistinguishable from a slow
	// run. An errored run carries no makespan or factor, the rest of the
	// suite still completes, and callers (cmd/ringexp) exit non-zero.
	Err string
}

// Telemetry is the per-run slice of the metrics.Summary the suite keeps:
// the quantities §6's successors report alongside makespan.
type Telemetry struct {
	PeakLinkUtilization float64 `json:"peakLinkUtilization"`
	TimeToBalance       int64   `json:"timeToBalance"`
	IdleFraction        float64 `json:"idleFraction"`
	PeakInTransit       int64   `json:"peakInTransit"`
	PeakPool            int64   `json:"peakPool"`
}

// newTelemetry projects a collector summary onto the suite's Telemetry.
func newTelemetry(s metrics.Summary) *Telemetry {
	return &Telemetry{
		PeakLinkUtilization: s.PeakLinkUtilization,
		TimeToBalance:       s.TimeToBalance,
		IdleFraction:        s.IdleFraction,
		PeakInTransit:       s.PeakInTransit,
		PeakPool:            s.PeakPool,
	}
}

// CaseResult is one test case with its optimum and all algorithm runs.
type CaseResult struct {
	ID    string
	Group string
	M     int
	Work  int64
	Opt   opt.Result
	Runs  map[string]Run
}

// SuiteInfo records the options a suite ran under, so exported reports
// are self-describing and reproducible.
type SuiteInfo struct {
	// SolverDeadline and SolverMaxArcs are the exact-optimum solver's
	// per-case budget.
	SolverDeadline time.Duration
	SolverMaxArcs  int
	// Metrics reports whether per-run telemetry was collected.
	Metrics bool
	// TraceExport reports whether per-run JSONL traces were written.
	TraceExport bool
	// Faults is the fault-injection spec the suite ran under ("" = clean).
	Faults string
}

// Report is a full suite execution.
type Report struct {
	Algorithms []string
	Cases      []CaseResult
	Elapsed    time.Duration
	// Suite is the configuration the suite ran under.
	Suite SuiteInfo
	// DeadlineHits counts cases whose optimum solver fell back to the
	// certified lower bound (deadline or network-size budget exceeded).
	DeadlineHits int
	// FlowCalls totals the solver's feasibility-flow computations.
	FlowCalls int
}

// Options configure a suite run.
type Options struct {
	// Algorithms to run; nil means all six of §6.
	Algorithms []string
	// OptLimits bound the exact-optimum solver per case. The zero value
	// uses a 15s deadline, enough to solve 46 of the 51 cases exactly on
	// commodity hardware.
	OptLimits opt.Limits
	// Progress, when non-nil, receives one line per completed case.
	Progress func(string)
	// Metrics attaches a telemetry collector to every run and fills
	// Run.Telemetry.
	Metrics bool
	// TraceOut, when non-nil, receives every run's event trace followed
	// by its metrics as JSONL (one schema-versioned section per run,
	// labelled with the case id). Implies Metrics-style collection for
	// the exported summaries.
	TraceOut io.Writer
	// SpanOut, when non-nil, receives one ringsched.span/v1 JSONL record
	// per case: the wall-clock span tree of the case's algorithm runs
	// and its exact-optimum solve — the serving layer's request-tracing
	// format applied to suite execution, so one tool reads both.
	// Records land in input case order whatever the worker count (span
	// timings themselves are wall-clock and vary run to run).
	SpanOut io.Writer
	// OnProgress, when non-nil, receives a snapshot after every
	// completed case (for live status displays).
	OnProgress func(Progress)
	// Workers bounds how many cases run concurrently; 0 means
	// GOMAXPROCS. The report is identical to a sequential run whatever
	// the worker count — cases land in input order, and each run's trace
	// is buffered and flushed whole.
	Workers int
	// Faults, when non-empty, is a "seed:spec" fault specification (see
	// internal/fault.ParseSpec): every run executes under a freshly bound
	// fault plane with the algorithm wrapped in the robust migration
	// protocol, and Run.Faults carries the injection/recovery counters.
	// Runs whose schedule loses or duplicates work, or whose plane cannot
	// bind (e.g. more crash-stops than the case's ring tolerates), are
	// recorded as per-run errors.
	Faults string
	// Engine names the simulation engine from internal/engine's
	// registry; "" picks the general-purpose one. Options the engine
	// cannot honor for any case (TraceOut, Faults) fail the suite up
	// front; cases outside its domain (sized jobs on a unit-only
	// engine) are recorded as per-run errors.
	Engine string
	// Ctx, when non-nil, cancels the suite like RunSuiteContext's
	// argument: in-flight solver searches fall back to their certified
	// lower bounds at the next probe boundary, pending cases start with
	// an expired budget, and the suite still returns a complete report.
	Ctx context.Context
	// SuiteDeadline, when positive, bounds the solver time of the whole
	// suite: the remaining budget is split fairly across the remaining
	// cases at the moment each is claimed (scaled by the worker count,
	// since concurrent cases spend wall-clock together), so one slow case
	// cannot starve the rest. Cases whose share runs out fall back to the
	// certified lower bound and count toward DeadlineHits. The per-case
	// OptLimits.Deadline still applies independently.
	SuiteDeadline time.Duration
}

// Progress is a live snapshot of a running suite.
type Progress struct {
	Done, Total  int
	CaseID       string
	DeadlineHits int
	Elapsed      time.Duration
}

func (o Options) algorithms() []string {
	if len(o.Algorithms) == 0 {
		return AlgorithmNames
	}
	return o.Algorithms
}

func (o Options) optLimits() opt.Limits {
	l := o.OptLimits
	if l.Deadline == 0 {
		l.Deadline = 15 * time.Second
	}
	return l
}

// shape is the engine-domain shape of one run of algorithm alg.
func (o Options) shape(alg string, unit bool) engine.Shape {
	return engine.Shape{Algorithm: alg, Unit: unit, Faults: o.Faults != "", Trace: o.TraceOut != nil}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunSuite executes the given cases (use workload.Suite() for the paper's
// 51) under the options, running up to Options.Workers cases concurrently.
// Options.Ctx, when set, cancels the suite (see RunSuiteContext).
func RunSuite(cases []workload.Case, o Options) (Report, error) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return RunSuiteContext(ctx, cases, o)
}

// caseOutcome is one worker's finished case, parked until the deterministic
// assembly pass stitches results back together in input order.
type caseOutcome struct {
	cr    CaseResult
	trace bytes.Buffer // buffered JSONL, flushed whole in case order
	span  *metrics.SpanRecord
}

// RunSuiteContext is RunSuite under a context: cancelling ctx makes
// in-flight solver searches fall back to their certified lower bounds at
// the next probe boundary and pending cases start with an expired budget.
// Simulation runs themselves are not interrupted (they are cheap next to
// the solver), so a cancelled suite still returns a complete report.
func RunSuiteContext(ctx context.Context, cases []workload.Case, o Options) (Report, error) {
	started := time.Now()
	specs := make(map[string]bucket.Spec, len(o.algorithms()))
	for _, name := range o.algorithms() {
		spec, err := bucket.ByName(name)
		if err != nil {
			return Report{}, err
		}
		if _, err := engine.Resolve(o.Engine, o.shape(name, true), 0); err != nil {
			return Report{}, fmt.Errorf("experiment: %w", err)
		}
		specs[name] = spec
	}

	if o.Faults != "" {
		// Fail on malformed specs before any case runs; per-case binding
		// (crash placement against each ring size) happens in runCase.
		if _, err := fault.ParseSpec(o.Faults); err != nil {
			return Report{}, fmt.Errorf("experiment: %w", err)
		}
	}

	rep := Report{
		Algorithms: o.algorithms(),
		Suite: SuiteInfo{
			SolverDeadline: o.optLimits().Deadline,
			SolverMaxArcs:  o.optLimits().MaxArcs,
			Metrics:        o.Metrics || o.TraceOut != nil,
			TraceExport:    o.TraceOut != nil,
			Faults:         o.Faults,
		},
	}

	workers := o.workers()
	if workers > len(cases) {
		workers = len(cases)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu       sync.Mutex
		next     int // next unclaimed case index
		done     int
		outcomes = make([]*caseOutcome, len(cases))
		firstErr error
		errIdx   = len(cases) // case index of firstErr; lowest one wins
	)

	// claim hands a worker the next case together with its solver budget.
	// The fair suite-deadline split happens here, under the mutex, so each
	// share reflects the budget actually left when the case starts: with W
	// cases spending wall-clock concurrently, giving each of the k
	// remaining cases remaining*W/k keeps the total at ~remaining.
	claim := func() (int, opt.Limits, context.CancelFunc, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= len(cases) {
			return 0, opt.Limits{}, nil, false
		}
		i := next
		next++
		lim := o.optLimits()
		cctx, cancel := ctx, context.CancelFunc(func() {})
		if o.SuiteDeadline > 0 {
			remaining := o.SuiteDeadline - time.Since(started)
			share := remaining * time.Duration(workers) / time.Duration(len(cases)-i)
			// A spent budget yields an already-expired context: the case
			// still runs (and reports), its solver falls back immediately.
			cctx, cancel = context.WithDeadline(ctx, time.Now().Add(share))
		}
		lim.Ctx = cctx
		return i, lim, cancel, true
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, lim, cancel, ok := claim()
				if !ok {
					return
				}
				out, err := runCase(cases[i], rep.Algorithms, specs, lim, o)
				cancel()
				mu.Lock()
				if err != nil {
					if i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					return
				}
				outcomes[i] = out
				done++
				if !out.cr.Opt.Exact {
					rep.DeadlineHits++
				}
				rep.FlowCalls += out.cr.Opt.FlowCalls
				if o.Progress != nil {
					o.Progress(fmt.Sprintf("%-28s opt=%-7d exact=%-5v %s",
						out.cr.ID, out.cr.Opt.Length, out.cr.Opt.Exact,
						summarizeRuns(rep.Algorithms, out.cr.Runs)))
				}
				if o.OnProgress != nil {
					o.OnProgress(Progress{
						Done: done, Total: len(cases), CaseID: out.cr.ID,
						DeadlineHits: rep.DeadlineHits, Elapsed: time.Since(started),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Report{}, firstErr
	}

	// Deterministic assembly: whatever order workers finished in, the
	// report and the trace/span streams follow the input case order.
	spanLog := metrics.NewSpanLog(o.SpanOut)
	for _, out := range outcomes {
		rep.Cases = append(rep.Cases, out.cr)
		if o.TraceOut != nil {
			if _, err := o.TraceOut.Write(out.trace.Bytes()); err != nil {
				return Report{}, fmt.Errorf("case %s: trace export: %w", out.cr.ID, err)
			}
		}
		if out.span != nil {
			if err := spanLog.Write(*out.span); err != nil {
				return Report{}, fmt.Errorf("case %s: span export: %w", out.cr.ID, err)
			}
		}
	}
	rep.Elapsed = time.Since(started)
	return rep, nil
}

// runCase runs every algorithm on one case and then solves for the exact
// optimum. The algorithms go first so their best makespan can seed the
// solver's upper bracket (any legal schedule is feasible, so its makespan
// bounds OPT from above) — on most suite cases that collapses the binary
// search to a probe or two.
func runCase(c workload.Case, algorithms []string, specs map[string]bucket.Spec, lim opt.Limits, o Options) (*caseOutcome, error) {
	out := &caseOutcome{cr: CaseResult{
		ID:    c.ID,
		Group: c.Group,
		M:     c.In.M,
		Work:  c.In.TotalWork(),
		Runs:  make(map[string]Run, len(specs)),
	}}
	cr := &out.cr
	collect := o.Metrics || o.TraceOut != nil
	var tr *metrics.Trace // nil unless span export is on; nil no-ops
	if o.SpanOut != nil {
		tr = metrics.NewTrace()
	}

	var best int64
	for _, name := range algorithms {
		simOpts := sim.Options{Record: o.TraceOut != nil}
		var rm *metrics.Ring
		if collect {
			rm = metrics.New(metrics.Opts{})
			simOpts.Collector = rm
		}
		alg := sim.Algorithm(specs[name])
		var pl *fault.Plane
		if o.Faults != "" {
			var err error
			pl, err = fault.ParsePlane(o.Faults, c.In.M, 0)
			if err != nil {
				// Binding is per-case (crash budgets scale with m), so a
				// spec a small ring cannot host errs that case only.
				cr.Runs[name] = Run{Err: fmt.Sprintf("fault plane: %v", err)}
				continue
			}
			alg = fault.Robust(alg, pl, fault.Protocol{})
			simOpts.Faults = pl
		}
		eng, err := engine.Resolve(o.Engine, o.shape(name, c.In.IsUnit()), 0)
		if err != nil {
			// Outside the engine's domain (sized jobs): a per-run result
			// on mixed suites, not a suite failure.
			cr.Runs[name] = Run{Err: err.Error()}
			continue
		}
		runStart := time.Now()
		res, err := eng.Run(c.In, alg, simOpts)
		tr.Add(name, "", runStart, time.Since(runStart))
		if err != nil {
			if errors.Is(err, sim.ErrNotQuiescent) {
				// MaxSteps exhaustion is a result, not a suite failure:
				// record it so the report can show which case/algorithm
				// failed to quiesce and the caller can exit non-zero.
				cr.Runs[name] = Run{Err: err.Error()}
				continue
			}
			return nil, fmt.Errorf("case %s, algorithm %s: %w", c.ID, name, err)
		}
		r := Run{Makespan: res.Makespan, JobHops: res.JobHops, Messages: res.Messages}
		if pl != nil {
			var total int64
			for _, p := range res.Processed {
				total += p
			}
			if total != c.In.TotalWork() {
				cr.Runs[name] = Run{Err: fmt.Sprintf("fault: processed %d of %d work units", total, c.In.TotalWork())}
				continue
			}
			fr := pl.Report()
			r.Faults = &fr
			if rm != nil {
				rm.SetFaults(fr)
			}
		}
		// A faulty execution is still a feasible schedule of the clean
		// instance (survivors run at unit speed, transit is real time), so
		// its makespan upper-bounds OPT either way.
		if best == 0 || res.Makespan < best {
			best = res.Makespan
		}
		if rm != nil {
			s := rm.Summary()
			// The collector folds the same event stream the engine
			// counts; disagreement means telemetry is lying.
			if s.JobHops != res.JobHops || s.Messages != res.Messages {
				return nil, fmt.Errorf("case %s, algorithm %s: collector (hops=%d, msgs=%d) disagrees with engine (hops=%d, msgs=%d)",
					c.ID, name, s.JobHops, s.Messages, res.JobHops, res.Messages)
			}
			r.Telemetry = newTelemetry(s)
		}
		if o.TraceOut != nil {
			if err := res.Trace.WriteJSONL(&out.trace, c.ID); err != nil {
				return nil, fmt.Errorf("case %s, algorithm %s: trace export: %w", c.ID, name, err)
			}
			if err := rm.WriteJSONL(&out.trace, c.ID); err != nil {
				return nil, fmt.Errorf("case %s, algorithm %s: metrics export: %w", c.ID, name, err)
			}
		}
		cr.Runs[name] = r
	}

	if lim.UpperHint == 0 || (best > 0 && best < lim.UpperHint) {
		lim.UpperHint = best
	}
	solveStart := time.Now()
	if c.In.IsUnit() {
		cr.Opt = opt.Uncapacitated(c.In, lim)
	} else {
		// The exact solver takes unit jobs only (sized scheduling is
		// NP-hard already on one machine): score against the bound.
		cr.Opt = opt.Result{Length: lb.Best(c.In), Method: "lb-fallback"}
	}
	tr.Add("solver", "", solveStart, time.Since(solveStart))
	if tr != nil {
		rec := tr.Record(c.ID, "suite-case")
		out.span = &rec
	}
	for name, r := range cr.Runs {
		if r.Err != "" {
			continue
		}
		if cr.Opt.Length > 0 {
			r.Factor = float64(r.Makespan) / float64(cr.Opt.Length)
		} else {
			r.Factor = 1
		}
		cr.Runs[name] = r
	}
	return out, nil
}

func summarizeRuns(algs []string, runs map[string]Run) string {
	parts := make([]string, 0, len(algs))
	for _, a := range algs {
		if runs[a].Err != "" {
			parts = append(parts, fmt.Sprintf("%s=ERR", a))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%.2f", a, runs[a].Factor))
	}
	return strings.Join(parts, " ")
}

// Factors returns the factor sample for one algorithm across all cases
// (optionally only those with exactly known optima).
func (r Report) Factors(alg string, exactOnly bool) []float64 {
	var xs []float64
	for _, c := range r.Cases {
		if exactOnly && !c.Opt.Exact {
			continue
		}
		if run, ok := c.Runs[alg]; ok && run.Err == "" {
			xs = append(xs, run.Factor)
		}
	}
	return xs
}

// RunErrors lists every errored run as "case/algorithm: message", sorted
// by case order then algorithm name. A non-empty result means some run hit
// its step budget without quiescing (or lost work under fault injection);
// cmd/ringexp uses it to fail the invocation.
func (r Report) RunErrors() []string {
	var out []string
	for _, c := range r.Cases {
		names := make([]string, 0, len(c.Runs))
		for name := range c.Runs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if e := c.Runs[name].Err; e != "" {
				out = append(out, fmt.Sprintf("%s/%s: %s", c.ID, name, e))
			}
		}
	}
	return out
}

// Worst returns the worst factor for alg and the case that produced it.
func (r Report) Worst(alg string, exactOnly bool) (float64, string) {
	worst, id := 0.0, ""
	for _, c := range r.Cases {
		if exactOnly && !c.Opt.Exact {
			continue
		}
		if run, ok := c.Runs[alg]; ok && run.Err == "" && run.Factor > worst {
			worst, id = run.Factor, c.ID
		}
	}
	return worst, id
}

// Histogram builds the Figures 2–7 histogram (bins of 0.2 from 1.0) for
// one algorithm. The axis is capped at the 4.22 guarantee; rarer, larger
// factors land in the overflow bin, keeping the figures readable.
func (r Report) Histogram(alg string) *stats.Histogram {
	xs := r.Factors(alg, false)
	hi := 1.2
	for _, x := range xs {
		if x > hi {
			hi = x
		}
	}
	if hi > 4.2 {
		hi = 4.2
	}
	h := stats.FigureHistogram(hi + 0.2)
	h.AddAll(xs)
	return h
}

// TelemetryAgg aggregates per-run telemetry across a suite for one
// algorithm (only cases that carried telemetry count).
type TelemetryAgg struct {
	Cases                  int     `json:"cases"`
	MeanIdleFraction       float64 `json:"meanIdleFraction"`
	MaxPeakLinkUtilization float64 `json:"maxPeakLinkUtilization"`
	MaxTimeToBalance       int64   `json:"maxTimeToBalance"`
	MaxPeakInTransit       int64   `json:"maxPeakInTransit"`
}

// TelemetryByAlg folds every case's telemetry into one aggregate per
// algorithm. The map is empty when the suite ran without Options.Metrics.
func (r Report) TelemetryByAlg() map[string]TelemetryAgg {
	out := make(map[string]TelemetryAgg)
	for _, alg := range r.Algorithms {
		var agg TelemetryAgg
		for _, c := range r.Cases {
			run, ok := c.Runs[alg]
			if !ok || run.Telemetry == nil {
				continue
			}
			tl := run.Telemetry
			agg.Cases++
			agg.MeanIdleFraction += tl.IdleFraction
			if tl.PeakLinkUtilization > agg.MaxPeakLinkUtilization {
				agg.MaxPeakLinkUtilization = tl.PeakLinkUtilization
			}
			if tl.TimeToBalance > agg.MaxTimeToBalance {
				agg.MaxTimeToBalance = tl.TimeToBalance
			}
			if tl.PeakInTransit > agg.MaxPeakInTransit {
				agg.MaxPeakInTransit = tl.PeakInTransit
			}
		}
		if agg.Cases > 0 {
			agg.MeanIdleFraction /= float64(agg.Cases)
			out[alg] = agg
		}
	}
	return out
}

// RenderTelemetry renders the per-algorithm telemetry aggregates as a
// compact text table ("" when the suite collected none).
func (r Report) RenderTelemetry() string {
	aggs := r.TelemetryByAlg()
	if len(aggs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry over %d cases (schema %s)\n", len(r.Cases), metrics.SchemaVersion)
	fmt.Fprintf(&b, "  %-4s %12s %14s %14s %14s\n",
		"alg", "idle (mean)", "link util (max)", "t-balance (max)", "in-transit (max)")
	for _, alg := range r.Algorithms {
		agg, ok := aggs[alg]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-4s %11.1f%% %14.1f%% %15d %16d\n",
			alg, 100*agg.MeanIdleFraction, 100*agg.MaxPeakLinkUtilization,
			agg.MaxTimeToBalance, agg.MaxPeakInTransit)
	}
	return b.String()
}

// figureNumbers maps each §6 algorithm to its figure in the paper.
var figureNumbers = map[string]int{"A1": 2, "B1": 3, "C1": 4, "A2": 5, "B2": 6, "C2": 7}

// RenderFigures renders every requested algorithm's histogram in the style
// of Figures 2–7.
func (r Report) RenderFigures() string {
	var b strings.Builder
	for _, alg := range r.Algorithms {
		title := fmt.Sprintf("Approximation factors for %d runs of %s", len(r.Factors(alg, false)), alg)
		if fig, ok := figureNumbers[alg]; ok {
			title = fmt.Sprintf("Figure %d: %s", fig, title)
		}
		b.WriteString(r.Histogram(alg).Render(title, 40))
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the full report as Markdown tables (used to produce
// EXPERIMENTS.md).
func (r Report) Markdown() string {
	var b strings.Builder

	fmt.Fprintf(&b, "## Summary (per algorithm)\n\n")
	fmt.Fprintf(&b, "| Algorithm | worst factor (all) | worst case | worst factor (exact opt only) | mean | share <= 1.2 |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	for _, alg := range r.Algorithms {
		all := r.Factors(alg, false)
		s := stats.Summarize(all)
		worst, worstID := r.Worst(alg, false)
		exactWorst, _ := r.Worst(alg, true)
		var under int
		for _, x := range all {
			if x <= 1.2 {
				under++
			}
		}
		fmt.Fprintf(&b, "| %s | %.2f | %s | %.2f | %.2f | %d/%d |\n",
			alg, worst, worstID, exactWorst, s.Mean, under, len(all))
	}

	fmt.Fprintf(&b, "\nSolver budget: deadline %s, max arcs %d; %d of %d cases fell back to the lower bound; %d feasibility-flow calls.\n",
		r.Suite.SolverDeadline, r.Suite.SolverMaxArcs, r.DeadlineHits, len(r.Cases), r.FlowCalls)

	if aggs := r.TelemetryByAlg(); len(aggs) > 0 {
		fmt.Fprintf(&b, "\n## Telemetry (per algorithm)\n\n")
		fmt.Fprintf(&b, "| Algorithm | mean idle fraction | max link utilization | max time-to-balance | max peak in-transit |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|\n")
		for _, alg := range r.Algorithms {
			agg, ok := aggs[alg]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "| %s | %.1f%% | %.1f%% | %d | %d |\n",
				alg, 100*agg.MeanIdleFraction, 100*agg.MaxPeakLinkUtilization,
				agg.MaxTimeToBalance, agg.MaxPeakInTransit)
		}
	}

	fmt.Fprintf(&b, "\n## Per-case results\n\n")
	fmt.Fprintf(&b, "| Case | group | m | work | OPT | exact |")
	for _, alg := range r.Algorithms {
		fmt.Fprintf(&b, " %s |", alg)
	}
	b.WriteString("\n|---|---|---|---|---|---|")
	for range r.Algorithms {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, c := range r.Cases {
		exact := "yes"
		if !c.Opt.Exact {
			exact = "LB only"
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %s |", c.ID, c.Group, c.M, c.Work, c.Opt.Length, exact)
		for _, alg := range r.Algorithms {
			if c.Runs[alg].Err != "" {
				fmt.Fprintf(&b, " ERR |")
				continue
			}
			fmt.Fprintf(&b, " %.2f |", c.Runs[alg].Factor)
		}
		b.WriteByte('\n')
	}
	if errs := r.RunErrors(); len(errs) > 0 {
		fmt.Fprintf(&b, "\n## Errored runs\n\n")
		for _, e := range errs {
			fmt.Fprintf(&b, "- %s\n", e)
		}
	}
	return b.String()
}

// SchemaReport identifies the JSON report format. v2 added the options,
// solver and per-run detail blocks (v1 had factors only).
const SchemaReport = "ringsched.report/v2"

// JSON encodes the report for downstream tooling: the suite's own
// configuration (so the export is self-describing and reproducible),
// solver accounting, per-case optima, factors, traffic counters and
// telemetry, plus per-algorithm summaries.
func (r Report) JSON() ([]byte, error) {
	type algSummary struct {
		Worst     float64 `json:"worst"`
		WorstCase string  `json:"worstCase"`
		Mean      float64 `json:"mean"`
	}
	type runOut struct {
		Makespan  int64                `json:"makespan"`
		Factor    float64              `json:"factor"`
		JobHops   int64                `json:"jobHops"`
		Messages  int64                `json:"messages"`
		Telemetry *Telemetry           `json:"telemetry,omitempty"`
		Faults    *metrics.FaultReport `json:"faults,omitempty"`
		Err       string               `json:"err,omitempty"`
	}
	type caseOut struct {
		ID      string             `json:"id"`
		Group   string             `json:"group"`
		M       int                `json:"m"`
		Work    int64              `json:"work"`
		Opt     int64              `json:"opt"`
		Exact   bool               `json:"exact"`
		Factors map[string]float64 `json:"factors"`
		Runs    map[string]runOut  `json:"runs"`
	}
	type optionsOut struct {
		SolverDeadlineSeconds float64 `json:"solverDeadlineSeconds"`
		SolverMaxArcs         int     `json:"solverMaxArcs"`
		Metrics               bool    `json:"metrics"`
		TraceExport           bool    `json:"traceExport"`
		Faults                string  `json:"faults,omitempty"`
	}
	type solverOut struct {
		DeadlineHits int `json:"deadlineHits"`
		ExactCases   int `json:"exactCases"`
		FlowCalls    int `json:"flowCalls"`
	}
	out := struct {
		Schema     string                  `json:"schema"`
		Algorithms []string                `json:"algorithms"`
		Options    optionsOut              `json:"options"`
		Solver     solverOut               `json:"solver"`
		Summary    map[string]algSummary   `json:"summary"`
		Telemetry  map[string]TelemetryAgg `json:"telemetry,omitempty"`
		Cases      []caseOut               `json:"cases"`
		ElapsedSec float64                 `json:"elapsedSeconds"`
	}{
		Schema:     SchemaReport,
		Algorithms: r.Algorithms,
		Options: optionsOut{
			SolverDeadlineSeconds: r.Suite.SolverDeadline.Seconds(),
			SolverMaxArcs:         r.Suite.SolverMaxArcs,
			Metrics:               r.Suite.Metrics,
			TraceExport:           r.Suite.TraceExport,
			Faults:                r.Suite.Faults,
		},
		Solver: solverOut{
			DeadlineHits: r.DeadlineHits,
			ExactCases:   len(r.Cases) - r.DeadlineHits,
			FlowCalls:    r.FlowCalls,
		},
		Summary:    map[string]algSummary{},
		ElapsedSec: r.Elapsed.Seconds(),
	}
	if aggs := r.TelemetryByAlg(); len(aggs) > 0 {
		out.Telemetry = aggs
	}
	for _, alg := range r.Algorithms {
		worst, id := r.Worst(alg, false)
		out.Summary[alg] = algSummary{
			Worst:     worst,
			WorstCase: id,
			Mean:      stats.Summarize(r.Factors(alg, false)).Mean,
		}
	}
	for _, c := range r.Cases {
		co := caseOut{ID: c.ID, Group: c.Group, M: c.M, Work: c.Work,
			Opt: c.Opt.Length, Exact: c.Opt.Exact,
			Factors: map[string]float64{}, Runs: map[string]runOut{}}
		for alg, run := range c.Runs {
			if run.Err != "" {
				co.Runs[alg] = runOut{Err: run.Err}
				continue
			}
			co.Factors[alg] = run.Factor
			co.Runs[alg] = runOut{Makespan: run.Makespan, Factor: run.Factor,
				JobHops: run.JobHops, Messages: run.Messages, Telemetry: run.Telemetry,
				Faults: run.Faults}
		}
		out.Cases = append(out.Cases, co)
	}
	return json.MarshalIndent(out, "", "  ")
}

// BestAlgorithm returns the algorithm with the smallest worst-case factor,
// breaking ties by mean (the paper's headline: A2).
func (r Report) BestAlgorithm() string {
	type score struct {
		name        string
		worst, mean float64
	}
	var scores []score
	for _, alg := range r.Algorithms {
		w, _ := r.Worst(alg, false)
		scores = append(scores, score{alg, w, stats.Summarize(r.Factors(alg, false)).Mean})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].worst != scores[j].worst {
			return scores[i].worst < scores[j].worst
		}
		return scores[i].mean < scores[j].mean
	})
	return scores[0].name
}
