// Command ringexp reproduces the paper's §6 experimental study: it runs
// the algorithms A1, B1, C1, A2, B2, C2 over the 51 test cases of Table 1,
// scores them against exact optima (or certified lower bounds when the
// solver budget is exceeded), and prints the Figures 2–7 histograms plus
// the summary and per-case tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	ringexp [-algs A1,C2] [-group structured|random|adversary] [-case id]
//	        [-deadline 15s] [-suite-deadline 2m] [-workers 8] [-markdown]
//	        [-quiet] [-metrics] [-trace-out suite.jsonl] [-spans-out spans.jsonl]
//	        [-progress] [-faults seed:spec] [-debug-addr :6060]
//	        [-engine pool|bigring]
//
// -workers parallelizes across suite cases. A bigring run forks its
// spans only while at least 4,096 buckets are live, so Table 1 rings
// (at most 2,000 buckets) always step on the calling goroutine.
//
// With -faults every run executes under the given seeded fault schedule
// (message loss, duplication, delay, processor stalls and crash-stops)
// with the algorithms wrapped in the robust migration protocol; runs that
// exhaust their step budget or lose work are reported per case and make
// the command exit non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ringsched/internal/cli"
	"ringsched/internal/engine"
	"ringsched/internal/experiment"
	"ringsched/internal/metrics"
	"ringsched/internal/opt"
	"ringsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ringexp: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringexp", flag.ContinueOnError)
	algs := fs.String("algs", "", "comma-separated algorithms (default: all six)")
	group := fs.String("group", "", "restrict to one Table 1 group: structured, random or adversary")
	caseID := fs.String("case", "", "restrict to one Table 1 case id, e.g. III-m100-L10")
	deadline := fs.Duration("deadline", 15*time.Second, "per-case budget for the exact optimum solver")
	suiteDeadline := fs.Duration("suite-deadline", 0, "total solver budget for the whole suite, split fairly across remaining cases (0 = none)")
	workers := fs.Int("workers", 0, "cases to run concurrently (0 = GOMAXPROCS)")
	maxArcs := fs.Int("maxarcs", 0, "cap the optimum solver's network size (0 = default); smaller falls back to lower bounds sooner")
	markdown := fs.Bool("markdown", false, "emit the EXPERIMENTS.md tables after the histograms")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	quiet := fs.Bool("quiet", false, "suppress per-case progress lines")
	capStudy := fs.Bool("cap", false, "run the §7 capacitated study instead of the §6 suite")
	withMetrics := fs.Bool("metrics", false, "collect per-run telemetry and print the per-algorithm table")
	traceOut := fs.String("trace-out", "", "write every run's event trace and metrics as JSONL to this file")
	spansOut := fs.String("spans-out", "", "write one ringsched.span/v1 JSONL record per case (run + solver timings) to this file")
	faults := fs.String("faults", "", `fault-injection "seed:spec" applied to every run, e.g. 7:loss=0.1,crashes=2 (see README)`)
	engineName := fs.String("engine", "pool", "simulation engine: "+engine.Names()+" (an option or case outside the engine's domain is refused)")
	progress := fs.Bool("progress", false, "live suite status line (cases done / deadline hits / elapsed) on stderr")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address, e.g. localhost:6060")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *debugAddr != "" {
		addr, err := cli.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "debug server: http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	if *capStudy {
		study, err := experiment.CapStudy(opt.Limits{Deadline: *deadline, MaxArcs: *maxArcs})
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.RenderCapStudy(study))
		return nil
	}

	cases := workload.Suite()
	switch {
	case *caseID != "":
		c, err := workload.ByID(*caseID)
		if err != nil {
			return err
		}
		cases = []workload.Case{c}
	case *group != "":
		var filtered []workload.Case
		for _, c := range cases {
			if c.Group == *group {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("unknown group %q", *group)
		}
		cases = filtered
	}

	o := experiment.Options{
		OptLimits:     opt.Limits{Deadline: *deadline, MaxArcs: *maxArcs},
		Metrics:       *withMetrics,
		Workers:       *workers,
		SuiteDeadline: *suiteDeadline,
		Faults:        *faults,
		Engine:        *engineName,
	}
	if *algs != "" {
		o.Algorithms = strings.Split(*algs, ",")
	}
	if !*quiet {
		o.Progress = func(line string) { fmt.Fprintln(errw, line) }
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		o.TraceOut = f
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return err
		}
		defer f.Close()
		o.SpanOut = f
	}

	// Live telemetry: a status line on stderr and/or expvar counters on
	// the debug server, both fed by the same per-case snapshots. Solver
	// counters are published as deltas over this run, so re-entrant test
	// invocations see their own numbers.
	casesDone := cli.DebugVar("ringexp.cases_done")
	deadlineHits := cli.DebugVar("ringexp.deadline_hits")
	solverProbes := cli.DebugVar("ringexp.solver_probes")
	solverMemoHits := cli.DebugVar("ringexp.solver_memo_hits")
	solverWarmReuses := cli.DebugVar("ringexp.solver_warm_reuses")
	solverColdBuilds := cli.DebugVar("ringexp.solver_cold_builds")
	casesDone.Set(0)
	deadlineHits.Set(0)
	solverStart := metrics.Solver.Snapshot()
	publishSolver := func() metrics.CounterSnapshot[metrics.SolverStat] {
		d := metrics.Solver.Snapshot().Sub(solverStart)
		solverProbes.Set(d.Get(metrics.SolverProbe))
		solverMemoHits.Set(d.Get(metrics.SolverMemoHit))
		solverWarmReuses.Set(d.Get(metrics.SolverWarmReuse))
		solverColdBuilds.Set(d.Get(metrics.SolverColdBuild))
		return d
	}
	publishSolver()
	o.OnProgress = func(p experiment.Progress) {
		casesDone.Set(int64(p.Done))
		deadlineHits.Set(int64(p.DeadlineHits))
		publishSolver()
		if *progress {
			fmt.Fprintf(errw, "\r[%d/%d] %-28s deadline-hits=%d elapsed=%s ",
				p.Done, p.Total, p.CaseID, p.DeadlineHits, p.Elapsed.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprintln(errw)
			}
		}
	}

	rep, err := experiment.RunSuite(cases, o)
	if err != nil {
		return err
	}
	solver := publishSolver()
	if !*quiet {
		fmt.Fprintf(errw, "solver: probes=%d memo-hits=%d warm-reuses=%d cold-builds=%d\n",
			solver.Get(metrics.SolverProbe), solver.Get(metrics.SolverMemoHit), solver.Get(metrics.SolverWarmReuse), solver.Get(metrics.SolverColdBuild))
	}

	if *faults != "" {
		publishFaultTotals(rep)
	}

	if *jsonOut {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if _, err := out.Write(append(data, '\n')); err != nil {
			return err
		}
		fmt.Fprintf(errw, "\nbest algorithm: %s; elapsed %s\n", rep.BestAlgorithm(), rep.Elapsed.Round(time.Second))
		return failOnRunErrors(rep, errw)
	}

	fmt.Fprint(out, rep.RenderFigures())
	if *withMetrics {
		fmt.Fprintln(out)
		fmt.Fprint(out, rep.RenderTelemetry())
	}
	if *markdown {
		fmt.Fprintln(out)
		fmt.Fprint(out, rep.Markdown())
	}
	fmt.Fprintf(errw, "\nbest algorithm: %s; elapsed %s\n", rep.BestAlgorithm(), rep.Elapsed.Round(time.Second))
	return failOnRunErrors(rep, errw)
}

// failOnRunErrors lists every errored run (a case/algorithm pair that
// exhausted its step budget without quiescing, or lost work under fault
// injection) and turns the invocation non-zero so CI catches it.
func failOnRunErrors(rep experiment.Report, errw io.Writer) error {
	errs := rep.RunErrors()
	if len(errs) == 0 {
		return nil
	}
	for _, e := range errs {
		fmt.Fprintf(errw, "run error: %s\n", e)
	}
	return fmt.Errorf("%d of the suite's runs errored", len(errs))
}

// publishFaultTotals sums the per-run fault accounting over the whole
// suite and publishes it on expvar (ringexp.faults.*).
func publishFaultTotals(rep experiment.Report) {
	var sum metrics.FaultReport
	for _, c := range rep.Cases {
		for _, r := range c.Runs {
			f := r.Faults
			if f == nil {
				continue
			}
			sum.Drops += f.Drops
			sum.DroppedWork += f.DroppedWork
			sum.Dups += f.Dups
			sum.Delays += f.Delays
			sum.DelaySteps += f.DelaySteps
			sum.StallSteps += f.StallSteps
			sum.Crashes += f.Crashes
			sum.PurgedWork += f.PurgedWork
			sum.RehomedWork += f.RehomedWork
			sum.Retries += f.Retries
			sum.Acks += f.Acks
			sum.ReclaimedWork += f.ReclaimedWork
			sum.DupDiscards += f.DupDiscards
		}
	}
	cli.PublishFaults("ringexp.faults", sum)
}
