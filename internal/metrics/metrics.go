// Package metrics is the ring-wide observability layer: a Collector
// interface the simulation engines feed with per-step telemetry, plus a
// concurrent-safe standard implementation (Ring) that turns every run
// into queryable aggregates — per-link traffic and utilization,
// per-processor pool occupancy, idle counts, in-transit work, and load
// imbalance (max-mean and Gini) maintained incrementally step by step.
//
// The engines call a nil Collector never, so a disabled collector costs
// one pointer comparison per packet and per step. Ring serializes its
// methods with a mutex, so one collector may be shared by the
// goroutine-per-processor runtime in internal/dist, where Send and
// Deliver arrive concurrently from many processors.
//
// The quantities here are the ones the paper's experimental story (§6)
// and its successors treat as first-class outputs: migration volume
// (job-hops), message traffic, link congestion, and how fast the initial
// load imbalance decays.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"ringsched/internal/ring"
)

// SchemaVersion identifies the metrics JSONL format written by
// Ring.WriteJSONL. Bump it when record shapes change incompatibly.
const SchemaVersion = "ringsched.metrics/v1"

// RunInfo describes the run a Collector is about to observe.
type RunInfo struct {
	Algorithm    string
	M            int   // ring size
	LinkCapacity int64 // 0 = uncapacitated
	Speed        int64 // work units per processor per step
	Transit      int64 // steps per hop
	TotalWork    int64 // total work of the instance
}

// StepInfo is the end-of-step snapshot the engine hands to Step. Pools is
// borrowed: it is only valid for the duration of the call and must be
// copied if retained.
type StepInfo struct {
	T         int64
	Pools     []int64 // per-processor pool work after this step
	Processed int64   // work units processed this step (all processors)
	Busy      int     // processors that processed work this step
	InTransit int64   // job payload inside in-flight packets after this step
}

// Collector receives the telemetry stream of one simulation run. Begin is
// called once before step 0, then for each step t: zero or more Deliver
// calls, zero or more Send calls, and exactly one Step call (runtimes
// that cannot snapshot pools, like internal/dist, may omit Step); End is
// called once after quiescence. Implementations used with internal/dist
// must be safe for concurrent use.
type Collector interface {
	Begin(run RunInfo)
	// Send reports a packet leaving proc `from` over the link in
	// direction dir at step t, carrying `work` payload in `jobs` jobs.
	Send(t int64, from int, dir ring.Direction, work, jobs int64)
	// Deliver reports a packet arriving at proc `to` at step t.
	Deliver(t int64, to int, dir ring.Direction, work, jobs int64)
	Step(s StepInfo)
	End()
}

// Opts configure a Ring collector.
type Opts struct {
	// Series records a StepMetrics entry for every simulated step
	// (memory proportional to the number of steps). Required for
	// per-step JSONL export; aggregates work without it.
	Series bool
	// SkipGini drops the per-step Gini computation, the one part of
	// Step that sorts the pool vector (O(m log m) per step). On
	// million-processor rings that sort dominates collection cost, so
	// the big-ring CLI path sets this for huge m; InitialGini, PeakGini
	// and the per-step Gini series then read 0.
	SkipGini bool
}

// Link identifies a directed ring link by its source processor and
// direction of travel.
type Link struct {
	Proc int
	Dir  ring.Direction
}

// LinkStats accumulates traffic over one directed link.
type LinkStats struct {
	Work      int64 // total job payload carried
	Jobs      int64 // total jobs carried
	Packets   int64 // packets carried (including control packets)
	BusySteps int64 // steps with at least one packet sent
}

// StepMetrics is one per-step series entry (Opts.Series).
type StepMetrics struct {
	T         int64   `json:"t"`
	MaxPool   int64   `json:"maxPool"`
	MeanPool  float64 `json:"meanPool"`
	Gini      float64 `json:"gini"`
	InTransit int64   `json:"inTransit"`
	Processed int64   `json:"processed"`
	Idle      int     `json:"idle"`
	SentWork  int64   `json:"sentWork"`
	Packets   int64   `json:"packets"` // delivered this step
}

// Summary is the aggregate telemetry of one completed run.
type Summary struct {
	Schema    string `json:"schema"`
	Algorithm string `json:"alg"`
	M         int    `json:"m"`
	Steps     int64  `json:"steps"`
	TotalWork int64  `json:"totalWork"`
	Processed int64  `json:"processed"`
	JobHops   int64  `json:"jobHops"`  // sum over sends of payload (1 hop each)
	Messages  int64  `json:"messages"` // packets delivered
	// PeakLinkUtilization is the busiest directed link's fraction of
	// steps with at least one packet (uncapacitated), or its jobs
	// divided by capacity*steps (capacitated).
	PeakLinkUtilization float64 `json:"peakLinkUtilization"`
	BusiestLink         Link    `json:"-"`
	BusiestLinkProc     int     `json:"busiestLinkProc"`
	BusiestLinkDir      string  `json:"busiestLinkDir"`
	// TimeToBalance is the first step from which the ring stays balanced
	// (max pool − mean pool ≤ 1) through the end of the run; 0 if it was
	// never unbalanced at a step boundary.
	TimeToBalance int64 `json:"timeToBalance"`
	// IdleFraction is the fraction of processor-steps with no
	// processing, over all simulated steps.
	IdleFraction  float64 `json:"idleFraction"`
	PeakPool      int64   `json:"peakPool"`
	PeakInTransit int64   `json:"peakInTransit"`
	MeanInTransit float64 `json:"meanInTransit"`
	// PeakImbalance is the largest observed (max pool − mean pool).
	PeakImbalance float64 `json:"peakImbalance"`
	// InitialGini and PeakGini measure load concentration (0 = uniform,
	// →1 = one processor holds everything) at the first step boundary
	// and at its worst.
	InitialGini float64 `json:"initialGini"`
	PeakGini    float64 `json:"peakGini"`
	// Faults is the fault-injection and recovery accounting of the run
	// (nil for fault-free runs); see Ring.SetFaults.
	Faults *FaultReport `json:"faults,omitempty"`
}

// FaultReport is the counter snapshot of one run's injected faults and
// the robust migration protocol's recovery actions. internal/fault's
// Plane produces it; it rides along in Summary (and therefore in the
// metrics JSONL export) and on expvar in the CLIs. All work quantities
// are job-payload units; the rest are event counts.
type FaultReport struct {
	Spec          string `json:"spec,omitempty"` // the seed:spec string the plane was built from
	Drops         int64  `json:"drops"`          // packets lost by the plane
	DroppedWork   int64  `json:"droppedWork"`    // payload aboard lost packets
	Dups          int64  `json:"dups"`           // packets duplicated by the plane
	Delays        int64  `json:"delays"`         // packets given extra delay
	DelaySteps    int64  `json:"delaySteps"`     // total extra steps injected
	StallSteps    int64  `json:"stallSteps"`     // processor-steps spent stalled
	Crashes       int64  `json:"crashes"`        // crash-stop failures
	PurgedWork    int64  `json:"purgedWork"`     // payload purged at/with crashed processors
	RehomedWork   int64  `json:"rehomedWork"`    // pool payload re-homed to neighbors
	Retries       int64  `json:"retries"`        // protocol retransmissions
	Acks          int64  `json:"acks"`           // acknowledgement packets sent
	ReclaimedWork int64  `json:"reclaimedWork"`  // payload reclaimed locally (dead destination)
	DupDiscards   int64  `json:"dupDiscards"`    // duplicate deliveries discarded by sequence number
}

// SetFaults attaches a fault report to the collector so Summary (and the
// JSONL export) carry the run's fault accounting.
func (r *Ring) SetFaults(f FaultReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = &f
}

// Ring is the standard Collector: it folds the event stream into the
// Summary aggregates incrementally and (optionally) a per-step series.
// All methods are safe for concurrent use. The zero value is not usable;
// call New.
type Ring struct {
	mu    sync.Mutex
	opts  Opts
	run   RunInfo
	began bool
	ended bool

	steps int64 // Step calls seen
	maxT  int64 // highest step touched by any event (for Step-less runtimes)

	// Per-link stats live in dense slices indexed by 2*proc+dirIdx(dir)
	// (maps on the per-packet path cost ~20% engine overhead; see
	// BenchmarkObservability). A link with Packets == 0 never carried
	// traffic.
	links    []LinkStats
	lastSent []int64 // last step each link carried a packet; -1 never

	peakPool      []int64
	jobHops       int64
	messages      int64
	processed     int64
	idleSteps     int64 // idle processor-steps
	peakInTransit int64
	sumInTransit  int64
	peakImbalance float64
	lastUnbal     int64 // last step observed unbalanced; -1 if never
	giniInit      float64
	giniPeak      float64
	haveGini      bool

	// per-step accumulators, reset by Step
	stepSentWork  int64
	stepDelivered int64

	scratch []int64 // reused sort buffer for the Gini computation
	series  []StepMetrics
	faults  *FaultReport // attached via SetFaults; nil for fault-free runs
}

var _ Collector = (*Ring)(nil)

// New returns an empty Ring collector. Pass it to sim.Options.Collector
// (or dist.Options.Collector) and read Summary after the run.
func New(o Opts) *Ring {
	return &Ring{opts: o, lastUnbal: -1, maxT: -1}
}

// Begin implements Collector.
func (r *Ring) Begin(run RunInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run = run
	r.began = true
	r.peakPool = make([]int64, run.M)
	if !r.opts.SkipGini {
		r.scratch = make([]int64, run.M)
	}
	r.growLinks(2 * run.M)
}

// dirIdx maps a direction to its slot within a processor's link pair.
func dirIdx(d ring.Direction) int {
	if d == ring.Clockwise {
		return 0
	}
	return 1
}

// linkOf inverts the dense index back to a Link.
func linkOf(i int) Link {
	d := ring.Clockwise
	if i%2 == 1 {
		d = ring.CounterClockwise
	}
	return Link{Proc: i / 2, Dir: d}
}

// growLinks ensures the dense link slices hold at least n entries
// (callers hold r.mu).
func (r *Ring) growLinks(n int) {
	for len(r.lastSent) < n {
		r.links = append(r.links, LinkStats{})
		r.lastSent = append(r.lastSent, -1)
	}
}

// Send implements Collector.
func (r *Ring) Send(t int64, from int, dir ring.Direction, work, jobs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touch(t)
	i := 2*from + dirIdx(dir)
	if i >= len(r.lastSent) {
		r.growLinks(i + 1)
	}
	ls := &r.links[i]
	ls.Work += work
	ls.Jobs += jobs
	ls.Packets++
	if r.lastSent[i] != t {
		ls.BusySteps++
		r.lastSent[i] = t
	}
	r.jobHops += work
	r.stepSentWork += work
}

// Deliver implements Collector.
func (r *Ring) Deliver(t int64, to int, dir ring.Direction, work, jobs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touch(t)
	r.messages++
	r.stepDelivered++
}

// Step implements Collector.
func (r *Ring) Step(s StepInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.touch(s.T)
	r.steps++
	r.processed += s.Processed
	m := len(s.Pools)
	r.idleSteps += int64(m - s.Busy)
	r.sumInTransit += s.InTransit
	if s.InTransit > r.peakInTransit {
		r.peakInTransit = s.InTransit
	}

	var total, max int64
	for i, w := range s.Pools {
		total += w
		if w > max {
			max = w
		}
		if i < len(r.peakPool) && w > r.peakPool[i] {
			r.peakPool[i] = w
		}
	}
	mean := 0.0
	if m > 0 {
		mean = float64(total) / float64(m)
	}
	imbalance := float64(max) - mean
	if imbalance > r.peakImbalance {
		r.peakImbalance = imbalance
	}
	if imbalance > 1 {
		r.lastUnbal = s.T
	}
	g := 0.0
	if !r.opts.SkipGini {
		g = giniOf(s.Pools, r.scratch)
		if !r.haveGini {
			r.giniInit = g
			r.haveGini = true
		}
		if g > r.giniPeak {
			r.giniPeak = g
		}
	}

	if r.opts.Series {
		r.series = append(r.series, StepMetrics{
			T: s.T, MaxPool: max, MeanPool: mean, Gini: g,
			InTransit: s.InTransit, Processed: s.Processed,
			Idle: m - s.Busy, SentWork: r.stepSentWork, Packets: r.stepDelivered,
		})
	}
	r.stepSentWork = 0
	r.stepDelivered = 0
}

// End implements Collector.
func (r *Ring) End() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ended = true
}

// touch extends the observed step range (callers hold r.mu).
func (r *Ring) touch(t int64) {
	if t > r.maxT {
		r.maxT = t
	}
}

// effectiveSteps is the run length: Step calls when the runtime makes
// them, otherwise the highest step any event touched plus one.
func (r *Ring) effectiveSteps() int64 {
	if r.steps >= r.maxT+1 {
		return r.steps
	}
	return r.maxT + 1
}

// Links returns a copy of the per-link traffic statistics. Links that
// never carried a packet are absent.
func (r *Ring) Links() map[Link]LinkStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Link]LinkStats)
	for i, ls := range r.links {
		if ls.Packets > 0 {
			out[linkOf(i)] = ls
		}
	}
	return out
}

// Series returns the per-step series (nil unless Opts.Series).
func (r *Ring) Series() []StepMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StepMetrics(nil), r.series...)
}

// Summary computes the aggregate telemetry observed so far. It may be
// called mid-run (e.g. from a debug endpoint) or after End.
func (r *Ring) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	steps := r.effectiveSteps()
	s := Summary{
		Schema:        SchemaVersion,
		Algorithm:     r.run.Algorithm,
		M:             r.run.M,
		Steps:         steps,
		TotalWork:     r.run.TotalWork,
		Processed:     r.processed,
		JobHops:       r.jobHops,
		Messages:      r.messages,
		PeakInTransit: r.peakInTransit,
		PeakImbalance: r.peakImbalance,
		InitialGini:   r.giniInit,
		PeakGini:      r.giniPeak,
		TimeToBalance: r.lastUnbal + 1,
		Faults:        r.faults,
	}
	if r.steps > 0 && r.run.M > 0 {
		s.IdleFraction = float64(r.idleSteps) / float64(r.steps*int64(r.run.M))
		s.MeanInTransit = float64(r.sumInTransit) / float64(r.steps)
	}
	for _, p := range r.peakPool {
		if p > s.PeakPool {
			s.PeakPool = p
		}
	}
	// Busiest link, with deterministic tie-breaking on (proc, dir).
	best, bestLink, have := 0.0, Link{}, false
	for i := range r.links {
		ls := &r.links[i]
		if ls.Packets == 0 {
			continue
		}
		l := linkOf(i)
		u := r.utilization(ls, steps)
		if !have || u > best || (u == best && less(l, bestLink)) {
			best, bestLink, have = u, l, true
		}
	}
	if have {
		s.PeakLinkUtilization = best
		s.BusiestLink = bestLink
		s.BusiestLinkProc = bestLink.Proc
		s.BusiestLinkDir = bestLink.Dir.String()
	}
	return s
}

// utilization is a link's busy fraction: steps carrying at least one
// packet over run steps (uncapacitated), or jobs over capacity*steps
// (capacitated, the §7 notion of a saturated link).
func (r *Ring) utilization(ls *LinkStats, steps int64) float64 {
	if steps == 0 {
		return 0
	}
	if c := r.run.LinkCapacity; c > 0 {
		return float64(ls.Jobs) / float64(c*steps)
	}
	return float64(ls.BusySteps) / float64(steps)
}

func less(a, b Link) bool {
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Dir < b.Dir
}

// giniOf computes the Gini coefficient of the load vector using the
// sorted-rank identity G = (2·Σᵢ i·x₍ᵢ₀)/(n·Σx) − (n+1)/n with 1-based
// ranks i over ascending x. Zero entries sort first and contribute nothing
// to the weighted sum, so only the nonzero support is copied and sorted —
// this runs every step, and the paper's workloads concentrate load on few
// processors. scratch must have len(pools) capacity; it is overwritten.
// An all-zero or empty vector has Gini 0.
func giniOf(pools, scratch []int64) float64 {
	n := len(pools)
	if n == 0 {
		return 0
	}
	scratch = scratch[:0]
	var total int64
	for _, w := range pools {
		if w != 0 {
			total += w
			scratch = append(scratch, w)
		}
	}
	if total == 0 {
		return 0
	}
	slices.Sort(scratch)
	zeros := n - len(scratch)
	var weighted int64
	for i, w := range scratch {
		weighted += int64(zeros+i+1) * w
	}
	return 2*float64(weighted)/(float64(n)*float64(total)) - float64(n+1)/float64(n)
}

// Multi fans the collector stream out to every non-nil collector in cs.
// It returns nil when none remain, so the engines' nil check still
// short-circuits, and the collector itself when only one remains.
func Multi(cs ...Collector) Collector {
	var live multi
	for _, c := range cs {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Collector

func (m multi) Begin(run RunInfo) {
	for _, c := range m {
		c.Begin(run)
	}
}

func (m multi) Send(t int64, from int, dir ring.Direction, work, jobs int64) {
	for _, c := range m {
		c.Send(t, from, dir, work, jobs)
	}
}

func (m multi) Deliver(t int64, to int, dir ring.Direction, work, jobs int64) {
	for _, c := range m {
		c.Deliver(t, to, dir, work, jobs)
	}
}

func (m multi) Step(s StepInfo) {
	for _, c := range m {
		c.Step(s)
	}
}

func (m multi) End() {
	for _, c := range m {
		c.End()
	}
}

// Progress is a Collector that renders a live status line: one line at
// Begin, one every Every steps, and one at End. Intended for a terminal's
// stderr during long runs.
type Progress struct {
	w     io.Writer
	every int64
	mu    sync.Mutex
	run   RunInfo
	last  StepInfo
	pools int64
}

// NewProgress returns a Progress collector writing to w every `every`
// steps (≤0 means every 1000).
func NewProgress(w io.Writer, every int64) *Progress {
	if every <= 0 {
		every = 1000
	}
	return &Progress{w: w, every: every}
}

// Begin implements Collector.
func (p *Progress) Begin(run RunInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.run = run
	fmt.Fprintf(p.w, "progress: alg=%s m=%d work=%d\n", run.Algorithm, run.M, run.TotalWork)
}

// Send implements Collector.
func (p *Progress) Send(t int64, from int, dir ring.Direction, work, jobs int64) {}

// Deliver implements Collector.
func (p *Progress) Deliver(t int64, to int, dir ring.Direction, work, jobs int64) {}

// Step implements Collector.
func (p *Progress) Step(s StepInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pool int64
	for _, w := range s.Pools {
		pool += w
	}
	p.last = StepInfo{T: s.T, Processed: s.Processed, Busy: s.Busy, InTransit: s.InTransit}
	p.pools = pool
	if s.T%p.every == 0 {
		p.line(s.T, pool, s)
	}
}

// End implements Collector.
func (p *Progress) End() {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "progress: done after step %d\n", p.last.T)
}

func (p *Progress) line(t, pool int64, s StepInfo) {
	fmt.Fprintf(p.w, "progress: t=%-8d pool=%-10d in-transit=%-8d busy=%d/%d\n",
		t, pool, s.InTransit, s.Busy, p.run.M)
}
