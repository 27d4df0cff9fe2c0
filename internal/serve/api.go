package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"ringsched/internal/engine"
	"ringsched/internal/instance"
	"ringsched/internal/online"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
)

// Schema identifies the serving API's JSON response format.
const Schema = "ringsched.serve/v1"

// ScheduleRequest is the body of POST /v1/schedule.
type ScheduleRequest struct {
	// Instance is the scheduling problem, in the same JSON form ringgen
	// emits. The server canonicalizes it before running: results are
	// reported for the rotation/reflection-minimal relabeling, so every
	// dihedral copy of one instance gets a byte-identical response.
	Instance instance.Instance `json:"instance"`
	// Algorithm is one of A1, B1, C1, A2, B2, C2, "cap" (the §7
	// unit-capacity-link algorithm) or "online" (the dynamic-arrival
	// diffusion algorithm; see Arrivals).
	Algorithm string `json:"algorithm"`
	// Options tune the run; the zero value is a plain sequential run.
	Options RequestOptions `json:"options"`
	// Arrivals, for algorithm "online" only, adds batches released
	// after time 0 on top of the instance's time-0 jobs. Requests with
	// arrivals are cached by their exact form (arrival processor
	// indices break the rotation symmetry).
	Arrivals []ArrivalBatch `json:"arrivals,omitempty"`
}

// RequestOptions is the shared option block every compute endpoint
// understands — /v1/schedule, /v1/compare and the /v1/session surface
// all carry the same field set (each ignores what does not apply to
// it), so clients configure one struct regardless of endpoint.
type RequestOptions struct {
	// MaxSteps aborts runaway runs; 0 uses the engine default.
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// TimeoutMs bounds this request's compute time; 0 (and anything
	// larger) uses the server's RequestTimeout.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Bidirectional selects the online algorithm's two-direction rule.
	Bidirectional bool `json:"bidirectional,omitempty"`
	// MigrationBudget caps, for the online algorithm, how many jobs of
	// each released batch may leave their home processor (see
	// online.Params.MigrationBudget); 0 means unlimited.
	MigrationBudget int64 `json:"migrationBudget,omitempty"`
	// Engine names the compute engine (one of internal/engine's
	// registry; an engine outside its domain is a 400), or ""/"auto" to
	// let the server pick: the huge-ring engine for rings at or above
	// Config.BigRingThreshold when it can run the request, the general
	// one otherwise. Results are bit-identical on every engine that
	// runs a request; the resolved engine is reported in the response
	// and the request's span log.
	Engine string `json:"engine,omitempty"`
}

// ArrivalBatch is one online release: count unit jobs appearing on
// processor proc at the start of step t.
type ArrivalBatch struct {
	T     int64 `json:"t"`
	Proc  int   `json:"proc"`
	Count int64 `json:"count"`
}

// ScheduleResponse is the body of a successful /v1/schedule call. All
// quantities refer to the canonical relabeling of the instance (which
// changes nothing aggregate: the model is rotation/reflection
// invariant). Whether the response came from the cache is reported out
// of band in the X-Ringserve-Cache header, so cached and freshly
// computed bodies are byte-identical.
type ScheduleResponse struct {
	Schema      string  `json:"schema"`
	Fingerprint string  `json:"fingerprint"`
	Algorithm   string  `json:"algorithm"`
	Makespan    int64   `json:"makespan"`
	Steps       int64   `json:"steps"`
	JobHops     int64   `json:"jobHops"`
	Messages    int64   `json:"messages"`
	LowerBound  int64   `json:"lowerBound"`
	Utilization float64 `json:"utilization,omitempty"`
	// MaxFlowTime and Migrated are set for algorithm "online" only.
	MaxFlowTime int64 `json:"maxFlowTime,omitempty"`
	Migrated    int64 `json:"migrated,omitempty"`
	// Engine is the registry engine that computed the run.
	Engine string `json:"engine,omitempty"`
}

// OptimalRequest is the body of POST /v1/optimal.
type OptimalRequest struct {
	Instance instance.Instance `json:"instance"`
	// Capacitated selects the §7 unit-capacity-link optimum.
	Capacitated bool `json:"capacitated,omitempty"`
	// Limits bound the solver; zero values use the solver defaults.
	Limits OptimalLimits `json:"limits"`
	// RequireExact makes a lower-bound fallback an error (HTTP 422
	// wrapping ErrLimitExceeded) instead of an exact=false response.
	RequireExact bool `json:"requireExact,omitempty"`
}

// OptimalLimits mirror opt.Limits on the wire.
type OptimalLimits struct {
	MaxArcs    int   `json:"maxArcs,omitempty"`
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	UpperHint  int64 `json:"upperHint,omitempty"`
}

// OptimalResponse is the body of a successful /v1/optimal call.
type OptimalResponse struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Length      int64  `json:"length"`
	Exact       bool   `json:"exact"`
	Method      string `json:"method"`
	FlowCalls   int    `json:"flowCalls"`
}

// CompareRequest is the body of POST /v1/compare: the Table-1 ratio for
// one instance — run the named algorithms, solve for the optimum, and
// score each algorithm against it.
type CompareRequest struct {
	Instance   instance.Instance `json:"instance"`
	Algorithms []string          `json:"algorithms,omitempty"` // default: all six of §6
	Limits     OptimalLimits     `json:"limits"`
	// Options is the shared option block (only TimeoutMs applies here).
	Options RequestOptions `json:"options"`
	// TimeoutMs is the historical top-level field; Options.TimeoutMs
	// wins when both are set. Kept for wire compatibility.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// timeoutMs resolves a compare request's effective timeout: the shared
// Options block first, the legacy top-level field otherwise.
func (r CompareRequest) timeoutMs() int64 {
	if r.Options.TimeoutMs > 0 {
		return r.Options.TimeoutMs
	}
	return r.TimeoutMs
}

// CompareRun is one algorithm's line in a CompareResponse.
type CompareRun struct {
	Makespan int64   `json:"makespan"`
	Factor   float64 `json:"factor"`
	JobHops  int64   `json:"jobHops"`
	Messages int64   `json:"messages"`
}

// CompareResponse is the body of a successful /v1/compare call.
type CompareResponse struct {
	Schema      string                `json:"schema"`
	Fingerprint string                `json:"fingerprint"`
	Opt         OptimalResponse       `json:"opt"`
	Runs        map[string]CompareRun `json:"runs"`
	Best        string                `json:"best"`
}

// SessionCreateRequest is the body of POST /v1/session: open a
// long-lived streaming scheduling session backed by a resumable online
// engine. Exactly one of M or Instance sets the ring: a unit Instance
// additionally seeds the session with its loads as time-0 arrivals.
type SessionCreateRequest struct {
	// M is the ring size (ignored when Instance is present).
	M int `json:"m,omitempty"`
	// Instance optionally seeds the session: its unit loads become
	// time-0 batches (appended, not yet stepped).
	Instance *instance.Instance `json:"instance,omitempty"`
	// Options is the shared option block; Bidirectional and
	// MigrationBudget configure the session's engine for its lifetime,
	// TimeoutMs bounds each append's stepping.
	Options RequestOptions `json:"options"`
	// TTLMs overrides the server's idle TTL for this session, clamped
	// to never exceed it; 0 uses the server default.
	TTLMs int64 `json:"ttlMs,omitempty"`
}

// SessionCreateResponse is the body of a successful session creation.
type SessionCreateResponse struct {
	Schema string `json:"schema"`
	// ID addresses the session: /v1/session/{id}.
	ID     string `json:"id"`
	Engine string `json:"engine"` // always "online"
	M      int    `json:"m"`
	// TTLMs is the idle eviction deadline: the session dies after this
	// long without an append, snapshot or delete touching it.
	TTLMs           int64 `json:"ttlMs"`
	Now             int64 `json:"now"`
	Bidirectional   bool  `json:"bidirectional,omitempty"`
	MigrationBudget int64 `json:"migrationBudget,omitempty"`
}

// SessionArrivalsRequest is the body of POST /v1/session/{id}/arrivals:
// append release batches to the session's engine and step it.
type SessionArrivalsRequest struct {
	Arrivals []ArrivalBatch `json:"arrivals"`
	// StepTo bounds this append's stepping: the engine advances through
	// the start of step StepTo (or to quiescence, whichever is first);
	// 0 steps all the way to quiescence.
	StepTo int64 `json:"stepTo,omitempty"`
	// Clamp lifts arrivals released before the engine's current time up
	// to it instead of failing the append with 409 stale_release.
	Clamp bool `json:"clamp,omitempty"`
	// Options is the shared option block; only TimeoutMs applies.
	Options RequestOptions `json:"options"`
}

// SessionSnapshot is the session digest every session endpoint returns:
// the engine's cumulative result so far (monotone under further appends
// and stepping) plus lifecycle bookkeeping.
type SessionSnapshot struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Engine string `json:"engine"`
	M      int    `json:"m"`
	// Now is the engine time (next step to execute); arrivals must be
	// released at or after it (or ask for clamping).
	Now int64 `json:"now"`
	// Quiescent reports every appended job has completed.
	Quiescent bool `json:"quiescent"`
	// Makespan, MaxFlowTime, Steps, JobHops, Migrated and Processed
	// mirror the online Result for everything appended so far.
	Makespan    int64   `json:"makespan"`
	MaxFlowTime int64   `json:"maxFlowTime"`
	Steps       int64   `json:"steps"`
	JobHops     int64   `json:"jobHops"`
	Migrated    int64   `json:"migrated"`
	Processed   []int64 `json:"processed"`
	// LowerBound is the release-aware certified bound over every batch
	// appended so far (recomputed on appends; snapshots reuse the last
	// computed value).
	LowerBound int64 `json:"lowerBound"`
	// TotalWork counts jobs appended; Released/Pending count batches
	// released into the ring vs appended but not yet released.
	TotalWork int64 `json:"totalWork"`
	Released  int   `json:"released"`
	Pending   int   `json:"pending"`
	// Appends counts accepted arrival calls over the session lifetime.
	Appends int64 `json:"appends"`
	// Terminal marks the final snapshot of a deleted/drained session.
	Terminal bool `json:"terminal,omitempty"`
}

// SessionArrivalsResponse is the body of a successful arrivals append.
type SessionArrivalsResponse struct {
	SessionSnapshot
	// Accepted counts the batches appended by this call; Clamped counts
	// how many had their release time lifted to the engine clock.
	Accepted int `json:"accepted"`
	Clamped  int `json:"clamped,omitempty"`
	// DeltaProcessed is the per-processor work completed by this call's
	// stepping — the incremental extension of the schedule.
	DeltaProcessed []int64 `json:"deltaProcessed"`
}

// AlgorithmsResponse is the body of GET /v1/algorithms: the discovery
// surface listing every algorithm and compute engine this server knows,
// so clients stop hardcoding names.
type AlgorithmsResponse struct {
	Schema     string          `json:"schema"`
	Algorithms []AlgorithmInfo `json:"algorithms"`
	Engines    []EngineInfo    `json:"engines"`
}

// AlgorithmInfo describes one algorithm accepted by POST /v1/schedule.
type AlgorithmInfo struct {
	engine.Algorithm
	// Engines lists the compute engines that can run this algorithm.
	Engines []string `json:"engines"`
	// Compare reports /v1/compare accepts this algorithm.
	Compare bool `json:"compare,omitempty"`
	// Sessions reports /v1/session streams this algorithm.
	Sessions bool `json:"sessions,omitempty"`
}

// EngineInfo describes one compute engine and its supported domain.
type EngineInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Domain states the instance/algorithm shapes the engine accepts.
	Domain string `json:"domain"`
	// Endpoints lists where the engine can be exercised.
	Endpoints []string `json:"endpoints"`
	// AutoThreshold, for the huge-ring engine, is the ring size at or
	// above which auto routing selects it (0 = auto routing disabled).
	AutoThreshold int `json:"autoThreshold,omitempty"`
}

// apiError is the uniform error envelope: {"error":{"code","message"}}.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID echoes the request's X-Request-Id so a failure in a log
	// pipeline can be joined back to its access-log span record. Success
	// bodies carry no ID (they must stay byte-identical across cache
	// hits); the header is the in-band channel there.
	RequestID string `json:"requestId,omitempty"`
}

// errorCode maps an error chain onto a wire code via the exported
// sentinels — the reason the public surface grew typed errors.
func errorCode(err error) (status int, code string) {
	switch {
	case errors.Is(err, instance.ErrInvalid):
		return http.StatusBadRequest, "invalid_instance"
	case errors.Is(err, errBadRequest), errors.Is(err, engine.ErrUnsupported):
		return http.StatusBadRequest, "invalid_request"
	case errors.Is(err, errSessionNotFound):
		return http.StatusNotFound, "session_not_found"
	case errors.Is(err, errSessionBusy):
		return http.StatusConflict, "session_busy"
	case errors.Is(err, online.ErrStaleRelease):
		return http.StatusConflict, "stale_release"
	case errors.Is(err, errSessionLimit):
		return http.StatusTooManyRequests, "session_limit"
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, opt.ErrLimitExceeded):
		return http.StatusUnprocessableEntity, "limit_exceeded"
	case errors.Is(err, sim.ErrNotQuiescent), errors.Is(err, online.ErrNotQuiescent):
		return http.StatusUnprocessableEntity, "step_limit"
	case errors.Is(err, sim.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// errBadRequest marks malformed request bodies (as opposed to malformed
// instances, which wrap instance.ErrInvalid).
var errBadRequest = errors.New("serve: bad request")

// errQueueFull marks admission rejection; the handler adds Retry-After.
var errQueueFull = errors.New("serve: compute queue full")

// Session lifecycle sentinels (see session.go).
var (
	errSessionNotFound = errors.New("serve: session not found")
	errSessionBusy     = errors.New("serve: session busy")
	errSessionLimit    = errors.New("serve: session limit reached")
)

// admissible rejects instances over the server's serving caps with an
// error wrapping opt.ErrLimitExceeded (HTTP 413 territory; we use 422's
// sibling mapping via limit_exceeded but with the dedicated status).
func (s *Server) admissible(in instance.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.M > s.cfg.MaxM {
		return fmt.Errorf("serve: ring size %d over the serving cap %d: %w",
			in.M, s.cfg.MaxM, opt.ErrLimitExceeded)
	}
	if w := in.TotalWork(); w > s.cfg.MaxTotalWork {
		return fmt.Errorf("serve: total work %d over the serving cap %d: %w",
			w, s.cfg.MaxTotalWork, opt.ErrLimitExceeded)
	}
	return nil
}

// normalizeAlgorithms validates and defaults a compare request's
// algorithm list: bucket algorithms, all six by default.
func normalizeAlgorithms(names []string) ([]string, error) {
	if len(names) == 0 {
		return []string{"A1", "B1", "C1", "A2", "B2", "C2"}, nil
	}
	for _, n := range names {
		if a := engine.LookupAlgorithm(n); a == nil || a.Kind != "bucket" {
			return nil, fmt.Errorf("%w: unknown algorithm %q", errBadRequest, n)
		}
	}
	return names, nil
}

// optKey renders solver limits into a cache-key fragment.
func optKey(l OptimalLimits) string {
	return fmt.Sprintf("arcs=%d|dl=%d|hint=%d", l.MaxArcs, l.DeadlineMs, l.UpperHint)
}

// arrivalsKey renders an arrival list into a cache-key fragment ("-"
// when empty).
func arrivalsKey(arr []ArrivalBatch) string {
	if len(arr) == 0 {
		return "-"
	}
	var b strings.Builder
	for _, a := range arr {
		fmt.Fprintf(&b, "%d@%d:%d;", a.Count, a.Proc, a.T)
	}
	return b.String()
}
