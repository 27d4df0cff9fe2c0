// Package engine is the registry of compute engines: one declaration per
// engine says what it is called, what it runs, where it is served and how
// a static run executes. Every consumer reads this table — ringserve's
// routing, cache key, metrics and /v1/algorithms catalog, the ringsched
// -engine flag and the experiment suite — so the rule for which engine
// may run a request lives here and nowhere else, and adding an engine
// costs one entry in All.
//
// The engines are interchangeable on their shared domain (bigring
// reproduces the pool engine bit for bit; a session's online engine
// reproduces a one-shot online run), which is what makes choosing among
// them pure routing policy.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"ringsched/internal/bigring"
	"ringsched/internal/bucket"
	"ringsched/internal/capring"
	"ringsched/internal/instance"
	"ringsched/internal/sim"
)

// ErrUnsupported marks a request no engine (or not the named engine) can
// run: an unknown algorithm or engine, or a shape outside the domain.
var ErrUnsupported = errors.New("engine: unsupported request")

// Algorithm is one algorithm a request can name, in the form the
// /v1/algorithms catalog publishes it.
type Algorithm struct {
	Name string `json:"name"`
	// Kind is "bucket" (the §6 static algorithms), "capacitated" (§7)
	// or "online" (the dynamic-arrival extension).
	Kind string `json:"kind"`
	// Unit reports the algorithm is defined for unit jobs only.
	Unit        bool   `json:"unit,omitempty"`
	Description string `json:"description"`
}

// Algorithms lists every algorithm the services accept, in catalog order.
var Algorithms = []Algorithm{
	{Name: "A1", Kind: "bucket", Description: "greedy bucket brigade, 3-competitive"},
	{Name: "B1", Kind: "bucket", Description: "balanced bucket brigade, 2-competitive on dense rings"},
	{Name: "C1", Kind: "bucket", Description: "counting bucket brigade with global load estimates"},
	{Name: "A2", Kind: "bucket", Description: "two-direction variant of A1"},
	{Name: "B2", Kind: "bucket", Description: "two-direction variant of B1"},
	{Name: "C2", Kind: "bucket", Description: "two-direction variant of C1"},
	{Name: "cap", Kind: "capacitated", Unit: true, Description: "unit-capacity-link scheduling (one job per link per step)"},
	{Name: "online", Kind: "online", Unit: true, Description: "dynamic-arrival diffusion scheduling with release-aware flow-time accounting"},
}

// Shape is what an engine's domain is judged on.
type Shape struct {
	Algorithm string
	// M is the ring size; only auto routing reads it.
	M        int
	Unit     bool // every job has unit size
	Arrivals bool // jobs are released after time 0
	Faults   bool // a fault plane is injected
	Trace    bool // an event trace is recorded
}

// Engine is one registry entry.
type Engine struct {
	Name        string
	Description string
	// Domain states in words what Supports checks; refusals quote it.
	Domain    string
	Endpoints []string
	// Kinds lists the algorithm kinds the engine runs.
	Kinds []string
	// Sized, Arrivals, Faults and Trace admit the Shape features of the
	// same names.
	Sized, Arrivals, Faults, Trace bool
	// Huge marks the engine built for huge rings: auto routing prefers it
	// at or above the serving threshold, and only it steps spans in
	// parallel.
	Huge bool
	// Run executes one static run with sim.Run's contract, including
	// cancellation by opts.Ctx. Run is nil for the online engine, whose
	// result is an online.Result.
	Run func(in instance.Instance, alg sim.Algorithm, opts sim.Options) (sim.Result, error)

	index int
}

// All is the registry, in name order: the order every engine-labeled
// metric family renders in.
var All = [...]Engine{
	{
		Name:        "bigring",
		Description: "allocation-free span-parallel engine for huge rings; bit-identical to pool on its domain",
		Domain:      "A1..C2 on unit-job instances, without arrivals, faults or event traces",
		Endpoints:   []string{"/v1/schedule"},
		Kinds:       []string{"bucket"},
		Huge:        true,
		Run:         runBigRing,
	},
	{
		Name:        "online",
		Description: "resumable incremental engine; a session is bit-identical to a one-shot online run over the same arrival sequence",
		Domain:      "algorithm online on unit-job instances, with arrivals in one request or appended over a session's lifetime; no faults or event traces",
		Endpoints:   []string{"/v1/session", "/v1/schedule"},
		Kinds:       []string{"online"},
		Arrivals:    true,
	},
	{
		Name:        "pool",
		Description: "general-purpose engine running on the shared worker pool",
		Domain:      "A1..C2 and cap without arrivals, on any admissible instance, with faults and event traces",
		Endpoints:   []string{"/v1/schedule", "/v1/optimal", "/v1/compare"},
		Kinds:       []string{"bucket", "capacitated"},
		Sized:       true,
		Faults:      true,
		Trace:       true,
		Run:         sim.Run,
	},
}

// names lists the engine names, comma-separated, for help and errors.
var names string

func init() {
	list := make([]string, len(All))
	for i := range All {
		All[i].index = i
		list[i] = All[i].Name
	}
	names = strings.Join(list, ", ")
}

// Names lists the engine names, comma-separated, for help and errors.
func Names() string { return names }

// Index is the engine's position in All, for per-engine arrays.
func (e *Engine) Index() int { return e.index }

// runBigRing runs a bucket algorithm on the flat-array engine, whose own
// rule forks its spans only while many buckets are live. Like sim it
// checks opts.Ctx before every step.
func runBigRing(in instance.Instance, alg sim.Algorithm, opts sim.Options) (sim.Result, error) {
	spec, ok := alg.(bucket.Spec)
	if !ok {
		return sim.Result{}, fmt.Errorf("%w: %s is not a bucket algorithm", bigring.ErrUnsupported, alg.Name())
	}
	e, err := bigring.New(in, spec, bigring.Options{MaxSteps: opts.MaxSteps, Collector: opts.Collector})
	if err != nil {
		return sim.Result{}, err
	}
	defer e.Close()
	for {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return sim.Result{}, fmt.Errorf("bigring: %w at t=%d (alg=%s): %w", sim.ErrCanceled, e.Now(), spec.Name(), err)
			}
		}
		if e.Step() {
			return e.Result()
		}
	}
}

// find returns the first element of xs that match accepts, or nil.
func find[T any](xs []T, match func(*T) bool) *T {
	for i := range xs {
		if match(&xs[i]) {
			return &xs[i]
		}
	}
	return nil
}

// Lookup returns the engine called name, or nil.
func Lookup(name string) *Engine {
	return find(All[:], func(e *Engine) bool { return e.Name == name })
}

// Serving returns the first engine whose Endpoints include endpoint, or
// nil: the engine an endpoint with a single engine attributes its
// computes to.
func Serving(endpoint string) *Engine {
	return find(All[:], func(e *Engine) bool { return slices.Contains(e.Endpoints, endpoint) })
}

// LookupAlgorithm returns the algorithm called name, or nil.
func LookupAlgorithm(name string) *Algorithm {
	return find(Algorithms, func(a *Algorithm) bool { return a.Name == name })
}

// Static returns the simulation algorithm behind a static algorithm name
// and the sim.Options its model needs (the link capacity of cap).
func Static(name string) (sim.Algorithm, sim.Options, error) {
	if name == "cap" {
		return capring.Algorithm{}, capring.Options(), nil
	}
	spec, err := bucket.ByName(name)
	return spec, sim.Options{}, err
}

// Supports reports whether the engine can run a request of shape sh,
// and if not, why (wrapping ErrUnsupported).
func (e *Engine) Supports(sh Shape) error {
	a := LookupAlgorithm(sh.Algorithm)
	switch {
	case a == nil:
		return fmt.Errorf("%w: unknown algorithm %q", ErrUnsupported, sh.Algorithm)
	case !sh.Unit && a.Unit:
		return fmt.Errorf("%w: algorithm %s requires a unit-job instance", ErrUnsupported, a.Name)
	case !slices.Contains(e.Kinds, a.Kind), !sh.Unit && !e.Sized, sh.Arrivals && !e.Arrivals, sh.Faults && !e.Faults, sh.Trace && !e.Trace:
		return fmt.Errorf("%w: engine %q runs only %s", ErrUnsupported, e.Name, e.Domain)
	}
	return nil
}

// Resolve picks the engine for a request of shape sh. A named engine must
// support the shape. "" or "auto" picks the first supporting engine in
// registry order among those that run the algorithm, trying Huge engines
// first when threshold > 0 and the ring has at least threshold
// processors, and never otherwise.
func Resolve(name string, sh Shape, threshold int) (*Engine, error) {
	if name != "" && name != "auto" {
		e := Lookup(name)
		if e == nil {
			return nil, fmt.Errorf("%w: unknown engine %q (want auto, %s)", ErrUnsupported, name, names)
		}
		if err := e.Supports(sh); err != nil {
			return nil, err
		}
		return e, nil
	}
	huge := threshold > 0 && sh.M >= threshold
	a := LookupAlgorithm(sh.Algorithm)
	var why error
	for _, pass := range []bool{true, false} {
		for i := range All {
			if e := &All[i]; e.Huge == pass && (huge || !e.Huge) && (a == nil || slices.Contains(e.Kinds, a.Kind)) {
				if why = e.Supports(sh); why == nil {
					return e, nil
				}
			}
		}
	}
	return nil, why
}
