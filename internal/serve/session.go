package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringsched/internal/metrics"
	"ringsched/internal/online"
	"ringsched/internal/opt"
)

// This file is the streaming-session layer: long-lived scheduling
// sessions backed by the resumable online engine. A client creates a
// session (POST /v1/session), streams arrival batches into it (POST
// /v1/session/{id}/arrivals — each append extends the schedule
// incrementally and returns monotone makespan/flow-time estimates plus
// a release-aware lower bound), inspects it (GET /v1/session/{id}) and
// ends it (DELETE /v1/session/{id}, which quiesces the engine and
// returns the terminal snapshot).
//
// Sessions are mutable server state, so the caching/coalescing miss
// path does not apply; what carries over is the pool (append stepping
// runs on a worker, so session load shares the same backpressure and
// 429 envelope as one-shot compute) and the observability surface
// (engine=online spans, computes_total{engine="online"}, session
// counters, the "session" latency endpoint). Appends on one session are
// serialized by a per-session mutex; a concurrent mutation attempt
// fails fast with 409 session_busy rather than queueing unboundedly.
// The registry bounds the live-session count (429 session_limit) and
// evicts sessions idle past their TTL. On graceful drain every
// surviving session is stepped to quiescence and flushed as a terminal
// snapshot (Config.SessionFlush, plus a span record when the access
// log is on).

// session is one live streaming session.
type session struct {
	id      string
	m       int
	opts    RequestOptions // Bidirectional/MigrationBudget fixed at create
	ttl     time.Duration
	created time.Time

	// mu serializes engine access; handlers TryLock and answer 409
	// rather than queue behind a long append.
	mu  sync.Mutex
	eng *online.Engine
	// lowerBound caches the last release-aware bound computed during an
	// append, so snapshots stay cheap.
	lowerBound int64

	lastUsed atomic.Int64 // unix nanos of the last touch
	appends  atomic.Int64
}

func (sess *session) touch(now time.Time) { sess.lastUsed.Store(now.UnixNano()) }

func (sess *session) expired(now time.Time) bool {
	return now.Sub(time.Unix(0, sess.lastUsed.Load())) > sess.ttl
}

// snapshotLocked renders the session digest; callers hold sess.mu.
func (sess *session) snapshotLocked(terminal bool) SessionSnapshot {
	snap := sess.eng.Snapshot()
	return SessionSnapshot{
		Schema:      Schema,
		ID:          sess.id,
		Engine:      sessionEngine.Name,
		M:           sess.m,
		Now:         snap.Now,
		Quiescent:   snap.Quiescent,
		Makespan:    snap.Makespan,
		MaxFlowTime: snap.MaxFlowTime,
		Steps:       snap.Steps,
		JobHops:     snap.JobHops,
		Migrated:    snap.Migrated,
		Processed:   snap.Processed,
		LowerBound:  sess.lowerBound,
		TotalWork:   snap.TotalWork,
		Released:    snap.Released,
		Pending:     snap.Pending,
		Appends:     sess.appends.Load(),
		Terminal:    terminal,
	}
}

// sessionRegistry owns the live sessions: bounded count, idle-TTL
// eviction (swept lazily on create and lookup), drain-once semantics.
type sessionRegistry struct {
	mu      sync.Mutex
	byID    map[string]*session
	max     int
	ttl     time.Duration
	stats   *metrics.Counters[stat]
	drained bool
}

func newSessionRegistry(max int, ttl time.Duration, stats *metrics.Counters[stat]) *sessionRegistry {
	return &sessionRegistry{byID: make(map[string]*session), max: max, ttl: ttl, stats: stats}
}

// sweepLocked evicts every session idle past its TTL; callers hold r.mu.
func (r *sessionRegistry) sweepLocked(now time.Time) {
	for id, sess := range r.byID {
		if sess.expired(now) {
			delete(r.byID, id)
			r.stats.Inc(statSessionsEvicted)
		}
	}
}

// create registers sess, evicting expired sessions first; a registry at
// capacity (or one already drained) refuses with errSessionLimit.
func (r *sessionRegistry) create(sess *session, now time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.drained {
		return fmt.Errorf("%w: server draining", errSessionLimit)
	}
	r.sweepLocked(now)
	if len(r.byID) >= r.max {
		return fmt.Errorf("%w: %d live sessions (cap %d)", errSessionLimit, len(r.byID), r.max)
	}
	r.byID[sess.id] = sess
	r.stats.Inc(statSessionsCreated)
	return nil
}

// get returns the live session for id; a session found expired is
// evicted on the spot and reported missing.
func (r *sessionRegistry) get(id string, now time.Time) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	if sess.expired(now) {
		delete(r.byID, id)
		r.stats.Inc(statSessionsEvicted)
		return nil, false
	}
	return sess, true
}

// remove unregisters id (the DELETE path; not counted as an eviction).
func (r *sessionRegistry) remove(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.byID[id]
	if ok {
		delete(r.byID, id)
	}
	return sess, ok
}

func (r *sessionRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// drain removes every session and returns them (id-sorted, for
// deterministic flush order). Subsequent creates are refused; calling
// drain again returns nil.
func (r *sessionRegistry) drain() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.drained {
		return nil
	}
	r.drained = true
	out := make([]*session, 0, len(r.byID))
	for _, sess := range r.byID {
		out = append(out, sess)
	}
	r.byID = make(map[string]*session)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// newSessionID mints a session identifier: process-unique, unguessable
// enough that one client does not trivially collide with another.
func newSessionID() string {
	var b [8]byte
	rand.Read(b[:])
	return "s-" + hex.EncodeToString(b[:])
}

// drainSessions is the graceful-drain half of the session contract:
// every surviving session is stepped to quiescence (bounded by the
// engine's own step budget) and flushed as a terminal snapshot — to the
// SessionFlush hook when configured, and to the access log as one
// span/v1 record carrying an engine=online span.
func (s *Server) drainSessions() {
	for _, sess := range s.sessions.drain() {
		sess.mu.Lock()
		start := time.Now()
		err := sess.eng.StepQuiescent(nil)
		snap := sess.snapshotLocked(true)
		sess.mu.Unlock()
		if s.cfg.SessionFlush != nil {
			s.cfg.SessionFlush(snap)
		}
		if s.accessLog != nil {
			tr := metrics.NewTrace()
			tr.Add("drain", "", start, time.Since(start))
			tr.Add("engine="+sessionEngine.Name, "drain", start, time.Since(start))
			rec := tr.Record(sess.id, "session")
			rec.Status = http.StatusOK
			if err != nil {
				_, rec.Error = errorCode(err)
			}
			s.accessLog.Write(rec)
		}
	}
}

// sessionCompute runs f on the worker pool as one online-engine compute
// (submit's envelope, under the engine=online span); a full queue sheds
// the request with the same 429 the one-shot endpoints use.
func (s *Server) sessionCompute(ctx context.Context, ri *reqInfo, f func(ctx context.Context) error) error {
	ch, err := s.submit(ctx, ri, sessionEngine, func(ctx context.Context) (any, error) {
		defer ri.span("engine", "compute")()
		defer ri.span("engine="+sessionEngine.Name, "engine")()
		return nil, f(ctx)
	})
	if err != nil {
		return err
	}
	// Unlike the one-shot respond path, the caller holds the session
	// mutex and f mutates the session's engine — so we must wait for the
	// worker rather than abandon it on cancellation (the engine honors
	// ctx, so a canceled step returns promptly with the engine paused but
	// consistent).
	return (<-ch).err
}

// handleSessionCreate is POST /v1/session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.stats.Inc(statRequests)
	var req SessionCreateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	m := req.M
	var seed []online.Batch
	if req.Instance != nil {
		if err := s.admissible(*req.Instance); err != nil {
			s.writeError(w, r, err)
			return
		}
		if !req.Instance.IsUnit() {
			s.writeError(w, r, fmt.Errorf("%w: session seeds require a unit-job instance", errBadRequest))
			return
		}
		oin, err := onlineInstance(*req.Instance, nil)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		m, seed = oin.M, oin.Batches
	}
	if m < 1 || m > s.cfg.MaxM {
		s.writeError(w, r, fmt.Errorf("%w: ring size %d (want 1..%d)", errBadRequest, m, s.cfg.MaxM))
		return
	}
	ttl := s.cfg.SessionTTL
	if req.TTLMs > 0 {
		if d := time.Duration(req.TTLMs) * time.Millisecond; d < ttl {
			ttl = d
		}
	}
	eng, err := online.NewEngine(m, online.Params{
		Bidirectional:   req.Options.Bidirectional,
		MigrationBudget: req.Options.MigrationBudget,
	})
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	if err := eng.Append(seed...); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	now := time.Now()
	sess := &session{
		id:      newSessionID(),
		m:       m,
		opts:    req.Options,
		ttl:     ttl,
		created: now,
		eng:     eng,
	}
	sess.touch(now)
	if err := s.sessions.create(sess, now); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, info(r), http.StatusOK, "", SessionCreateResponse{
		Schema:          Schema,
		ID:              sess.id,
		Engine:          sessionEngine.Name,
		M:               m,
		TTLMs:           ttl.Milliseconds(),
		Now:             eng.Now(),
		Bidirectional:   req.Options.Bidirectional,
		MigrationBudget: req.Options.MigrationBudget,
	})
}

// lockSession resolves id and takes its mutex without blocking: a
// session mid-append answers 409 session_busy instead of queueing.
func (s *Server) lockSession(id string) (*session, error) {
	sess, ok := s.sessions.get(id, time.Now())
	if !ok {
		return nil, fmt.Errorf("%w: %q", errSessionNotFound, id)
	}
	if !sess.mu.TryLock() {
		return nil, fmt.Errorf("%w: %q has a mutation in flight", errSessionBusy, id)
	}
	return sess, nil
}

// handleSessionArrivals is POST /v1/session/{id}/arrivals: append
// batches, step the engine (to quiescence or a requested pause point)
// on the worker pool, and return the incrementally extended schedule.
func (s *Server) handleSessionArrivals(w http.ResponseWriter, r *http.Request) {
	s.stats.Inc(statRequests)
	var req SessionArrivalsRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if req.StepTo < 0 {
		s.writeError(w, r, fmt.Errorf("%w: negative stepTo %d", errBadRequest, req.StepTo))
		return
	}
	sess, err := s.lockSession(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer sess.mu.Unlock()
	sess.touch(time.Now())

	// Admission: the session's cumulative work obeys the same cap as
	// one-shot instances.
	var added int64
	for _, a := range req.Arrivals {
		if a.Count < 0 || a.T < 0 || a.Proc < 0 || a.Proc >= sess.m {
			s.writeError(w, r, fmt.Errorf("%w: bad arrival %+v for ring of %d", errBadRequest, a, sess.m))
			return
		}
		added += a.Count
	}
	if total := sess.eng.TotalWork() + added; total > s.cfg.MaxTotalWork {
		s.writeError(w, r, fmt.Errorf("serve: session work %d over the serving cap %d: %w",
			total, s.cfg.MaxTotalWork, opt.ErrLimitExceeded))
		return
	}
	clamped := 0
	batches := make([]online.Batch, len(req.Arrivals))
	for i, a := range req.Arrivals {
		t := a.T
		if req.Clamp && t < sess.eng.Now() {
			t = sess.eng.Now()
			clamped++
		}
		batches[i] = online.Batch{Time: t, Proc: a.Proc, Count: a.Count}
	}

	before := sess.eng.Snapshot()
	timeoutMs := req.Options.TimeoutMs
	if timeoutMs <= 0 {
		timeoutMs = sess.opts.TimeoutMs
	}
	ri := info(r)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMs))
	defer cancel()
	err = s.sessionCompute(ctx, ri, func(ctx context.Context) error {
		if err := sess.eng.Append(batches...); err != nil {
			return err
		}
		sess.appends.Add(1)
		s.stats.Inc(statSessionAppends)
		var serr error
		if req.StepTo > 0 {
			serr = sess.eng.StepUntil(ctx, req.StepTo)
		} else {
			serr = sess.eng.StepQuiescent(ctx)
		}
		if serr != nil {
			return serr
		}
		sess.lowerBound = sess.eng.LowerBound()
		return nil
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	after := sess.snapshotLocked(false)
	delta := make([]int64, sess.m)
	for v := range delta {
		delta[v] = after.Processed[v] - before.Processed[v]
	}
	writeJSON(w, info(r), http.StatusOK, "", SessionArrivalsResponse{
		SessionSnapshot: after,
		Accepted:        len(batches),
		Clamped:         clamped,
		DeltaProcessed:  delta,
	})
}

// handleSessionGet is GET /v1/session/{id}: the snapshot digest.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.stats.Inc(statRequests)
	sess, err := s.lockSession(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	sess.touch(time.Now())
	snap := sess.snapshotLocked(false)
	sess.mu.Unlock()
	writeJSON(w, info(r), http.StatusOK, "", snap)
}

// handleSessionDelete is DELETE /v1/session/{id}: unregister the
// session, quiesce its engine on the pool, and return the terminal
// snapshot.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.stats.Inc(statRequests)
	sess, err := s.lockSession(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer sess.mu.Unlock()
	s.sessions.remove(sess.id)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(sess.opts.TimeoutMs))
	defer cancel()
	err = s.sessionCompute(ctx, info(r), func(ctx context.Context) error {
		if err := sess.eng.StepQuiescent(ctx); err != nil {
			return err
		}
		sess.lowerBound = sess.eng.LowerBound()
		return nil
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, info(r), http.StatusOK, "", sess.snapshotLocked(true))
}
