// Command ringsched runs one scheduling algorithm on one instance and
// reports the schedule.
//
// The instance comes from a JSON file (-in, as produced by ringgen), from
// an inline load vector (-loads "100,0,0,25"), or from a named Table 1
// case (-case I-m100-point-huge).
//
// Examples:
//
//	ringsched -loads 100,0,0,0,0,0,0,0 -alg C1
//	ringsched -case II-m100-rand500 -alg A2 -opt
//	ringsched -in instance.json -alg cap -gantt
//	ringsched -loads 60,0,0,0,0,0 -alg C2 -distributed
//	ringsched -case III-m100-L10 -alg C1 -metrics -trace-out run.jsonl
//	ringsched -loads 1000000,0,0,0 -alg C2 -engine bigring -metrics
//	ringsched -loads 100,0,0,0,0,0,0,0 -alg A1 -faults 7:loss=0.1,dup=0.05,crashes=2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ringsched"
	"ringsched/internal/cli"
	"ringsched/internal/engine"
	"ringsched/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ringsched: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringsched", flag.ContinueOnError)
	inFile := fs.String("in", "", "instance JSON file")
	loads := fs.String("loads", "", "inline comma-separated unit loads, e.g. 100,0,0,25")
	caseID := fs.String("case", "", "Table 1 case id, e.g. I-m100-point-huge")
	algName := fs.String("alg", "C1", "algorithm: A1,B1,C1,A2,B2,C2 or cap (§7, unit-capacity links)")
	engineName := fs.String("engine", "pool", "compute engine: "+engine.Names()+" (a run outside the engine's domain is refused)")
	showOpt := fs.Bool("opt", false, "also compute the exact optimum / lower bound")
	gantt := fs.Bool("gantt", false, "print a utilization heat map of the schedule")
	distributed := fs.Bool("distributed", false, "run on the goroutine-per-processor runtime")
	showMetrics := fs.Bool("metrics", false, "collect run telemetry and print the summary")
	traceOut := fs.String("trace-out", "", "write the event trace and metrics as JSONL to this file")
	faults := fs.String("faults", "", `fault-injection "seed:spec", e.g. 7:loss=0.1,dup=0.05,crashes=2 (see README)`)
	progress := fs.Bool("progress", false, "print live step progress to stderr")
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

	in, err := cli.LoadInstance(*inFile, *loads, *caseID)
	if err != nil {
		return err
	}

	alg, opts, err := engine.Static(*algName)
	if err != nil {
		return err
	}
	opts.Record = *gantt || *traceOut != ""

	// Every feature the engine cannot reproduce exactly is refused up
	// front rather than silently ignored. -distributed replaces the
	// default engine with the goroutine runtime, so it takes no other.
	shape := engine.Shape{Algorithm: *algName, M: in.M, Unit: in.IsUnit(), Faults: *faults != "", Trace: opts.Record}
	eng, err := engine.Resolve(*engineName, shape, 0)
	if err != nil {
		return err
	}
	if def, _ := engine.Resolve("", shape, 0); *distributed && eng != def {
		return fmt.Errorf("-engine=%s is incompatible with -distributed", eng.Name)
	}

	// Fault injection: bind the seeded plane to this ring, wrap the
	// algorithm in the robust migration protocol, and point the engine at
	// the plane so it can schedule drops, stalls and crash-stops.
	var plane *ringsched.FaultPlane
	if *faults != "" {
		if *algName == "cap" {
			return fmt.Errorf("-faults is not supported with the capacitated algorithm")
		}
		plane, err = ringsched.ParseFaultPlane(*faults, in.M, 0)
		if err != nil {
			return err
		}
		alg = ringsched.RobustAlgorithm(alg, plane, ringsched.FaultProtocol{})
		opts.Faults = plane
	}

	// Assemble the observability chain: an aggregating collector when
	// telemetry or an export is wanted, a live progress printer on top.
	var rm *ringsched.RingMetrics
	var collectors []ringsched.Collector
	if *showMetrics || *traceOut != "" {
		// On big-ring-scale instances the collector's per-step Gini sort
		// (O(m log m)) would cost more than any engine's step.
		rm = ringsched.NewRingMetrics(ringsched.MetricsOpts{Series: *traceOut != "", SkipGini: in.M >= 100_000})
		collectors = append(collectors, rm)
	}
	if *progress {
		collectors = append(collectors, ringsched.NewProgressCollector(errw, 1000))
	}
	opts.Collector = ringsched.MultiCollector(collectors...)

	fmt.Fprintf(out, "instance: %v   lower bound: %d\n", in, ringsched.LowerBound(in))

	if *distributed {
		dopts := ringsched.DistOptions{Collector: opts.Collector}
		if plane != nil {
			// Assigning a nil *FaultPlane would still make the interface
			// field non-nil and switch the runtime onto the fault path.
			dopts.Faults = plane
		}
		res, err := ringsched.ScheduleDistributed(in, alg, dopts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s (goroutine runtime): makespan=%d steps=%d jobhops=%d messages=%d\n",
			res.Algorithm, res.Makespan, res.Steps, res.JobHops, res.Messages)
		emitFaults(out, rm, plane)
		if err := emitObservability(out, rm, *showMetrics, *traceOut, *caseID, nil); err != nil {
			return err
		}
		return maybeOpt(out, in, *showOpt, *algName, res.Makespan)
	}

	res, err := eng.Run(in, alg, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: makespan=%d steps=%d jobhops=%d messages=%d utilization=%.1f%%\n",
		res.Algorithm, res.Makespan, res.Steps, res.JobHops, res.Messages, 100*res.Utilization())
	if *gantt && res.Trace != nil {
		heat, err := res.Trace.RenderGantt(72)
		if err != nil {
			return fmt.Errorf("-gantt: %w", err)
		}
		fmt.Fprint(out, heat)
	}
	if plane != nil && res.Trace != nil {
		// The trace is on hand anyway; prove the robustness invariants
		// (no unit lost or double-processed, no work on dead processors).
		if err := ringsched.VerifyFaulty(in, res.Trace, plane); err != nil {
			return fmt.Errorf("fault invariants violated: %w", err)
		}
		fmt.Fprintln(out, "fault invariants: ok (no work lost or double-processed)")
	}
	emitFaults(out, rm, plane)
	if err := emitObservability(out, rm, *showMetrics, *traceOut, *caseID, res.Trace); err != nil {
		return err
	}
	return maybeOpt(out, in, *showOpt, *algName, res.Makespan)
}

// emitFaults prints the fault plane's accounting, folds it into the
// telemetry summary, and publishes it on expvar for the debug server.
func emitFaults(out io.Writer, rm *ringsched.RingMetrics, plane *ringsched.FaultPlane) {
	if plane == nil {
		return
	}
	f := plane.Report()
	if rm != nil {
		rm.SetFaults(f)
	}
	cli.PublishFaults("ringsched.faults", f)
	fmt.Fprintf(out, "faults: drops=%d dups=%d delays=%d stall-steps=%d crashes=%d retries=%d acks=%d dup-discards=%d rehomed=%d reclaimed=%d purged=%d\n",
		f.Drops, f.Dups, f.Delays, f.StallSteps, f.Crashes, f.Retries, f.Acks,
		f.DupDiscards, f.RehomedWork, f.ReclaimedWork, f.PurgedWork)
}

// emitObservability prints the telemetry summary and/or writes the JSONL
// export (trace section when the engine recorded one, then metrics).
func emitObservability(out io.Writer, rm *ringsched.RingMetrics, show bool, traceOut, caseID string, trace *ringsched.Trace) error {
	if rm == nil {
		return nil
	}
	if show {
		fmt.Fprint(out, stats.RenderTelemetry(rm.Summary()))
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if trace != nil {
		if err := trace.WriteJSONL(f, caseID); err != nil {
			return err
		}
	}
	if err := rm.WriteJSONL(f, caseID); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace written to %s\n", traceOut)
	return f.Close()
}

func maybeOpt(out io.Writer, in ringsched.Instance, show bool, algName string, makespan int64) error {
	if !show {
		return nil
	}
	var o ringsched.OptResult
	if algName == "cap" {
		o = ringsched.OptimalCapacitated(in, ringsched.OptLimits{})
	} else {
		o = ringsched.Optimal(in, ringsched.OptLimits{})
	}
	rel := "="
	if !o.Exact {
		rel = ">="
	}
	fmt.Fprintf(out, "optimum %s %d (%s); approximation factor <= %.3f\n",
		rel, o.Length, o.Method, float64(makespan)/float64(o.Length))
	return nil
}
