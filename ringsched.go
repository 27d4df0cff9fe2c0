// Package ringsched is a from-scratch reproduction of "Job Scheduling in
// Rings" (Fizzano, Karger, Stein, Wein; SPAA 1994): distributed
// approximation algorithms for scheduling independent jobs on a ring of
// processors where migrating a job costs time proportional to the distance
// it travels.
//
// # The model
//
// m identical processors form a ring. Processor i starts with x_i jobs at
// time 0. In one time unit a processor can receive jobs from each
// neighbor, send jobs to each neighbor, and process one unit of work; a
// job sent at time t arrives at time t+1. The goal is to finish all jobs
// as early as possible using only local control: no processor ever sees
// global state.
//
// # The algorithms
//
// The paper's algorithms send "buckets" of jobs around the ring, topping
// up each processor toward a target derived from a lower bound on the
// optimal schedule:
//
//   - C1/C2 — the analyzed algorithm (Theorem 1): targets c·sqrt(segment
//     work); a 4.22-approximation for unit jobs (5.22 for arbitrary job
//     sizes via the §4.2 extension, both implemented here).
//   - B1/B2 — targets the exact Lemma 1 lower bound (empirically the
//     worst of the three, as §6.2 observes).
//   - A1/A2 — each processor keeps its queue topped up to the square
//     root of the work that has passed it (empirically the best; A2's
//     worst observed factor in the paper is 1.65).
//
// The §7 unit-capacity-link algorithm (Capacitated) is a 2L+2
// approximation under the model where each link carries at most one job
// per step.
//
// # Quick start
//
//	in := ringsched.UnitInstance([]int64{100, 0, 0, 0, 0, 0, 0, 0})
//	res, err := ringsched.Schedule(in, ringsched.C1(), ringsched.Options{})
//	opt := ringsched.Optimal(in, ringsched.OptLimits{})
//	fmt.Printf("makespan %d vs optimal %d\n", res.Makespan, opt.Length)
//
// Everything the paper evaluates is reproducible: PaperSuite returns the
// 51 Table 1 workloads and RunPaperExperiments regenerates Figures 2–7
// (see EXPERIMENTS.md for measured-vs-paper numbers).
package ringsched

import (
	"io"

	"ringsched/internal/adversary"
	"ringsched/internal/bucket"
	"ringsched/internal/capring"
	"ringsched/internal/dist"
	"ringsched/internal/experiment"
	"ringsched/internal/fault"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
	"ringsched/internal/online"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
	"ringsched/internal/torus"
	"ringsched/internal/workload"
)

// Instance is one scheduling problem: a ring size plus the jobs starting
// on each processor. Build one with UnitInstance or SizedInstance.
//
// The §2 model is invariant under relabeling processor 0 and flipping
// the ring's orientation, and Instance exposes that symmetry directly:
// Instance.Canonical returns the rotation/reflection-minimal
// representative of an instance's equivalence class, and
// Instance.Fingerprint hashes it into a stable (64-bit + SHA-256)
// identity — equal exactly for instances that are rotations or
// reflections of one another. The ringserve daemon's result cache keys
// on it; Instance.Rotate and Instance.Reflect generate the symmetric
// copies. Canonical instances round-trip deterministically through
// JSON: encode(decode(encode(c))) is byte-identical.
type Instance = instance.Instance

// InstanceFingerprint is the stable content hash Instance.Fingerprint
// returns: invariant under rotation and reflection of the ring.
type InstanceFingerprint = instance.Fingerprint

// Exported sentinel errors for the public surface. Every failure of the
// corresponding kind wraps one of these, whatever engine produced it,
// so callers dispatch with errors.Is instead of string matching (the
// ringserve daemon maps them onto HTTP status codes the same way).
var (
	// ErrInvalidInstance: a malformed instance (bad ring size, negative
	// counts, both or neither representation, over the MaxM /
	// MaxTotalWork caps) from Validate or JSON decoding.
	ErrInvalidInstance = instance.ErrInvalid
	// ErrStepLimit: a simulation (either engine) hit MaxSteps without
	// quiescing. Identical to sim.ErrNotQuiescent.
	ErrStepLimit = sim.ErrNotQuiescent
	// ErrCanceled: a run stopped early because Options.Ctx /
	// DistOptions.Ctx was canceled or its deadline expired. Errors
	// wrapping it also wrap the context's own error.
	ErrCanceled = sim.ErrCanceled
	// ErrLimitExceeded: a computation was refused or degraded because it
	// exceeded a configured limit (solver budgets, serve admission caps).
	ErrLimitExceeded = opt.ErrLimitExceeded
	// ErrTraceTooLarge: a trace rendering (Trace.RenderGantt) was refused
	// because it would materialize more than sim.MaxGanttCells cells.
	ErrTraceTooLarge = sim.ErrTraceTooLarge
)

// UnitInstance returns an instance with counts[i] unit-size jobs starting
// on processor i (the paper's basic model, §2).
func UnitInstance(counts []int64) Instance { return instance.NewUnit(counts) }

// SizedInstance returns an instance where rows[i] lists the integer sizes
// of the jobs starting on processor i (§4.2's arbitrary-size model).
func SizedInstance(rows [][]int64) Instance { return instance.NewSized(rows) }

// Algorithm is a distributed scheduling algorithm: a factory of strictly
// local per-processor programs. The built-in algorithms are the Spec
// values (A1..C2) and Capacitated; custom algorithms implement the
// interface directly.
type Algorithm = sim.Algorithm

// Spec selects one of the paper's bucket algorithms and its parameters.
type Spec = bucket.Spec

// Variant selects a Spec's drop-off rule.
type Variant = bucket.Variant

// The three §6 drop-off rules.
const (
	VariantA = bucket.VariantA
	VariantB = bucket.VariantB
	VariantC = bucket.VariantC
)

// DefaultC is variant C's drop-off constant from Theorem 1 (1.77).
const DefaultC = bucket.DefaultC

// The six §6 algorithms. C1/C2 carry the Theorem 1 guarantee; A2 is the
// empirical winner.
func A1() Spec { return bucket.A1() }
func B1() Spec { return bucket.B1() }
func C1() Spec { return bucket.C1() }
func A2() Spec { return bucket.A2() }
func B2() Spec { return bucket.B2() }
func C2() Spec { return bucket.C2() }

// AlgorithmByName resolves "A1".."C2".
func AlgorithmByName(name string) (Spec, error) { return bucket.ByName(name) }

// Capacitated is the §7 algorithm for unit-capacity links. Pass
// CapacitatedOptions() to Schedule so the engine enforces the link limit.
type Capacitated = capring.Algorithm

// CapacitatedOptions returns simulation options with the §7 model's unit
// link capacity.
func CapacitatedOptions() Options { return capring.Options() }

// Options configure a simulation run (link capacity, step limit, trace
// recording, and — via the Ctx field — cancellation and deadlines:
// Schedule aborts with an error wrapping ErrCanceled at the next step
// boundary once the context is done).
type Options = sim.Options

// Result reports a schedule: makespan, per-processor work, message and
// job-hop counts, and optionally a verifiable event trace.
type Result = sim.Result

// Trace is the verifiable event record of a run (Options.Record); its
// WriteJSONL method exports it under the ringsched.trace/v1 schema.
type Trace = sim.Trace

// Schedule runs alg on in under the deterministic sequential engine and
// returns the resulting schedule's metrics.
func Schedule(in Instance, alg Algorithm, opts Options) (Result, error) {
	return sim.Run(in, alg, opts)
}

// Collector receives the engine's observability stream — per-packet
// sends/deliveries plus, on the sequential engine, an end-of-step snapshot
// — via Options.Collector or DistOptions.Collector. Leave the field nil to
// run without observation at full speed.
type Collector = metrics.Collector

// RingMetrics is the standard Collector: it folds the event stream into
// link statistics, load-balance aggregates, and (optionally) a per-step
// time series, and exports everything as schema-versioned JSONL.
type RingMetrics = metrics.Ring

// MetricsOpts configure NewRingMetrics.
type MetricsOpts = metrics.Opts

// MetricsSummary is a RingMetrics run's aggregate view.
type MetricsSummary = metrics.Summary

// NewRingMetrics returns an empty RingMetrics collector.
func NewRingMetrics(o MetricsOpts) *RingMetrics { return metrics.New(o) }

// NewProgressCollector returns a Collector that prints a live line to w
// every `every` steps (for long runs on big rings).
func NewProgressCollector(w io.Writer, every int64) Collector { return metrics.NewProgress(w, every) }

// MultiCollector fans the observability stream out to several collectors.
func MultiCollector(cs ...Collector) Collector { return metrics.Multi(cs...) }

// DistResult reports a run on the concurrent goroutine runtime.
type DistResult = dist.Result

// DistOptions configure the concurrent runtime. The Ctx field cancels a
// run at the next step barrier (error wraps ErrCanceled).
type DistOptions = dist.Options

// ScheduleDistributed runs alg with one goroutine per processor and
// channels as links — same programs, same schedules, truly concurrent
// execution. Prefer Schedule for experiments; use this to exercise the
// algorithms as actual distributed processes.
func ScheduleDistributed(in Instance, alg Algorithm, opts DistOptions) (DistResult, error) {
	return dist.Run(in, alg, opts)
}

// FaultPlane is a bound fault-injection schedule: deterministic per-link
// loss/duplication/delay verdicts plus processor stalls and crash-stops,
// all derived from one seed. Both engines accept one via Options.Faults /
// DistOptions.Faults.
type FaultPlane = fault.Plane

// FaultSpec is a parsed (unbound) fault specification.
type FaultSpec = fault.Spec

// FaultProtocol tunes the robust migration protocol's retry timeout and
// backoff cap; the zero value uses the defaults.
type FaultProtocol = fault.Protocol

// FaultReport is the injection/recovery accounting of one faulty run.
type FaultReport = metrics.FaultReport

// ParseFaultPlane parses a "seed:spec" fault specification (see
// fault.ParseSpec for the grammar) and binds it to a ring of m processors.
// horizon bounds seeded random placements; <= 0 uses 4m.
func ParseFaultPlane(spec string, m int, horizon int64) (*FaultPlane, error) {
	return fault.ParsePlane(spec, m, horizon)
}

// RobustAlgorithm wraps alg in the ack/retry migration protocol so it
// survives the plane's message loss, duplication and crash-stops without
// losing or double-processing work. Run the result with Options.Faults
// (or DistOptions.Faults) set to the same plane.
func RobustAlgorithm(alg Algorithm, pl *FaultPlane, p FaultProtocol) Algorithm {
	return fault.Robust(alg, pl, p)
}

// VerifyFaulty checks a recorded faulty execution against the hard
// robustness invariants (no unit lost or double-processed, no work on
// dead or stalled processors, speed limits respected).
func VerifyFaulty(in Instance, tr *Trace, pl *FaultPlane) error {
	return fault.Verify(in, tr, pl)
}

// LowerBound returns the strongest certified lower bound on the optimal
// schedule length for the uncapacitated model: the Lemma 1 window bound,
// ceil(n/m) and p_max.
func LowerBound(in Instance) int64 { return lb.Best(in) }

// CapacitatedLowerBound adds the Lemma 10 window bound for unit-capacity
// links.
func CapacitatedLowerBound(in Instance) int64 { return lb.Capacitated(in) }

// OptResult is an exact optimum (or certified lower bound when Exact is
// false).
type OptResult = opt.Result

// OptLimits bound the optimum solver's effort.
type OptLimits = opt.Limits

// Optimal computes the exact optimal schedule length for a unit-job
// instance on uncapacitated links (binary search over a max-flow
// feasibility test; see internal/opt). Falls back to LowerBound beyond
// the limits, with Exact=false.
func Optimal(in Instance, lim OptLimits) OptResult { return opt.Uncapacitated(in, lim) }

// OptimalCapacitated computes the exact optimum under unit-capacity links
// via a time-expanded flow network.
func OptimalCapacitated(in Instance, lim OptLimits) OptResult { return opt.Capacitated(in, lim) }

// FracResult reports a run of the §3 splittable Basic Algorithm.
type FracResult = bucket.FracResult

// RunFractional executes the §3 basic algorithm with splittable jobs,
// the object of the paper's 4.22 analysis. Lemma 6 (tested in this
// repository) says the integral C algorithms finish at most 2 time units
// later.
func RunFractional(in Instance, spec Spec) FracResult { return bucket.RunFractional(in, spec) }

// ScaledResult is a schedule on a speed-s / transit-τ ring mapped back to
// original time units (§4.3).
type ScaledResult = bucket.ScaledResult

// ScheduleScaled schedules in on a ring whose processors run at integer
// speed `speed` and whose links take `transit` time per hop, via the §4.3
// reduction to the unit problem. Job sizes must be divisible by
// speed*transit.
func ScheduleScaled(in Instance, spec Spec, speed, transit int64, opts Options) (ScaledResult, error) {
	return bucket.RunScaled(in, spec, speed, transit, opts)
}

// Case is one experiment workload.
type Case = workload.Case

// PaperSuite returns the 51 test cases of Table 1 (36 structured, 9
// uniform random, 6 evil-adversary), deterministically seeded.
func PaperSuite() []Case { return workload.Suite() }

// EvilInstance builds the §3 adversary's instance for lower bound L:
// loads [L, L², L, ..., L] over the region, zero elsewhere; its Lemma 1
// bound is exactly L.
func EvilInstance(m int, L int64) Instance {
	return adversary.Evil(m, L, adversary.EvilRegion(m, L), 0)
}

// OnlineBatch is a group of unit jobs released together at a processor.
type OnlineBatch = online.Batch

// OnlineInstance is a ring instance whose jobs arrive over time — the
// dynamic setting of the paper's reference [4] (Awerbuch, Kutten, Peleg)
// restricted to the ring. An extension of this repository; the paper
// itself treats only the static problem.
type OnlineInstance = online.Instance

// NewOnlineInstance validates and sorts an arrival sequence.
func NewOnlineInstance(m int, batches []OnlineBatch) (OnlineInstance, error) {
	return online.NewInstance(m, batches)
}

// OnlineParams tune ScheduleOnline (zero value: algorithm A's rule,
// unidirectional).
type OnlineParams = online.Params

// OnlineResult reports an online run, including the maximum flow time.
type OnlineResult = online.Result

// ScheduleOnline runs the online diffusion algorithm: arrivals top their
// processor's queue up to sqrt(work passed) and the excess ships around
// the ring, with no knowledge of future arrivals.
func ScheduleOnline(in OnlineInstance, p OnlineParams) (OnlineResult, error) {
	return online.Run(in, p)
}

// OnlineLowerBound certifies a release-aware lower bound on the
// clairvoyant optimum.
func OnlineLowerBound(in OnlineInstance) int64 { return online.LowerBound(in) }

// OnlineEngine is the resumable form of ScheduleOnline: arrivals are
// appended while the simulation is underway (Append), stepping pauses
// at any time or at quiescence (StepUntil / StepQuiescent), and every
// pause point yields a digest (Snapshot) bit-identical to what a
// one-shot ScheduleOnline over the batches appended so far would
// report. ringserve's /v1/session endpoints are a thin HTTP surface
// over this type.
type OnlineEngine = online.Engine

// OnlineSnapshot is a point-in-time digest of an OnlineEngine.
type OnlineSnapshot = online.Snapshot

// ErrStaleRelease rejects appending a batch released before the
// engine's current time.
var ErrStaleRelease = online.ErrStaleRelease

// NewOnlineEngine returns an empty resumable online engine over a ring
// of m processors.
func NewOnlineEngine(m int, p OnlineParams) (*OnlineEngine, error) {
	return online.NewEngine(m, p)
}

// OptimalOnline computes the exact clairvoyant optimum (the scheduler
// that knows all future arrivals), via the release-shifted staircase
// flow.
func OptimalOnline(in OnlineInstance, lim OptLimits) OptResult {
	return online.Optimal(in, lim)
}

// Torus is an R×C two-dimensional ring, the subject of the paper's §8
// open problem ("do simple constant-factor distributed algorithms exist
// for other networks, such as the mesh?"). The answer explored here —
// compose the ring strategy along rows, then columns — is this
// repository's extension, not the paper's; see internal/torus.
type Torus = torus.Topology

// NewTorus returns an R×C torus.
func NewTorus(r, c int) Torus { return torus.New(r, c) }

// TorusParams tune ScheduleTorus (zero fields select tuned defaults).
type TorusParams = torus.Params

// TorusResult reports a two-phase torus run.
type TorusResult = torus.Result

// ScheduleTorus runs the two-phase (rows-then-columns) bucket algorithm
// for unit jobs on a torus. works[t.Index(r,c)] jobs start at node (r,c).
func ScheduleTorus(t Torus, works []int64, p TorusParams) (TorusResult, error) {
	return torus.TwoPhase(t, works, p)
}

// TorusLowerBound returns the certified lower bound (disk windows +
// average) for a torus instance.
func TorusLowerBound(t Torus, works []int64) int64 { return torus.Best(t, works) }

// OptimalTorus computes the exact optimum on the torus via the same
// staircase-flow argument as the ring solver.
func OptimalTorus(t Torus, works []int64, lim OptLimits) OptResult {
	return torus.Optimal(t, works, lim)
}

// Report is a full experiment-suite execution (factors, histograms,
// Markdown rendering).
type Report = experiment.Report

// ExperimentOptions configure RunPaperExperiments.
type ExperimentOptions = experiment.Options

// RunPaperExperiments reruns the §6 study (or any subset of cases) and
// returns the report whose RenderFigures method reproduces Figures 2–7.
func RunPaperExperiments(cases []Case, o ExperimentOptions) (Report, error) {
	return experiment.RunSuite(cases, o)
}
