// Package serve is the scheduling-as-a-service layer: a long-running
// HTTP/JSON daemon exposing the ring model behind four endpoints —
// POST /v1/schedule (any §6/§7/online algorithm), POST /v1/optimal
// (the exact solver under limits), POST /v1/compare (algorithms scored
// against the optimum) and GET /v1/healthz, /v1/statusz.
//
// The hot path exploits the model's dihedral symmetry: every incoming
// instance is canonicalized (rotation/reflection-minimal relabeling,
// see instance.Canonical) before compute, and results are cached under
// the canonical fingerprint. Two requests for the same ring up to
// rotation or reflection therefore share one cache entry and receive
// byte-identical response bodies; only the X-Ringserve-Cache header
// (hit|miss) differs. Compute runs on a bounded worker pool with
// non-blocking admission — a full queue answers 429 + Retry-After
// instead of queueing unboundedly — per-request deadlines, and panic
// isolation, and the daemon drains gracefully on context cancellation.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ringsched/internal/bucket"
	"ringsched/internal/engine"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
	"ringsched/internal/online"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers is the compute pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued-but-unstarted requests; 0 means
	// 4×Workers. A full queue sheds load with 429 + Retry-After.
	QueueDepth int
	// CacheEntries is the result cache capacity; 0 means 4096.
	CacheEntries int
	// CacheShards is the cache's lock-sharding factor; 0 means 16.
	CacheShards int
	// RequestTimeout caps any single request's compute time; 0 means
	// 30s. Per-request timeoutMs values may shorten it, never extend.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown's wait for in-flight
	// requests; 0 means 30s.
	DrainTimeout time.Duration
	// MaxM caps admissible ring sizes; 0 means 100 000.
	MaxM int
	// MaxTotalWork caps admissible total work; 0 means 10 000 000.
	MaxTotalWork int64
	// MaxBody caps request body size; 0 means 8 MiB.
	MaxBody int64
	// BigRingThreshold is the ring size at or above which auto routing
	// picks the huge-ring engine (internal/bigring) for requests it can
	// run (engine.Resolve); 0 means 100 000, negative disables it (an
	// explicit engine request still works). Results are bit-identical on
	// every engine that runs a request.
	BigRingThreshold int
	// MaxSessions bounds concurrently live streaming sessions; 0 means
	// 1024. Creation past the cap answers 429 session_limit.
	MaxSessions int
	// SessionTTL is the idle eviction deadline for streaming sessions
	// (a session untouched this long is evicted); 0 means 10 minutes.
	// Per-session ttlMs values may shorten it, never extend.
	SessionTTL time.Duration
	// SessionFlush, when non-nil, receives the terminal snapshot of
	// every session flushed by graceful drain (each is stepped to
	// quiescence first). Called synchronously from the drain path.
	SessionFlush func(SessionSnapshot)
	// AccessLog, when non-nil, receives one ringsched.span/v1 JSONL
	// record per API request: the request ID, endpoint, status, cache
	// verdict and the span tree (canonicalize, cache, queue, compute
	// with engine/solver children, encode). Writes are whole-line
	// atomic; the writer is shared by all handler goroutines.
	AccessLog io.Writer
	// Remote, when non-nil, is the cluster layer: on a cache miss the
	// singleflight leader offers the request to Remote (which fetches
	// the body from the key's owning peer) before computing locally.
	// Requests that arrived with the peer-forward header never
	// re-forward, so differing ownership views cannot loop.
	Remote Remote
	// ExtraProm, when non-nil, is called after the server's own
	// families when rendering /metrics (the cluster layer appends its
	// peer, breaker and degradation families here).
	ExtraProm func(*metrics.PromWriter)
	// ExtraStatus, when non-nil, contributes the "cluster" block of
	// /v1/statusz.
	ExtraStatus func() any
}

// Remote is the hook a cluster layer implements to serve cache misses
// from the key's owning peer. Fetch returns the exact response body to
// put on the wire (and in the local cache); ok=false means "compute
// locally" — the key is self-owned, the owner is down or its breaker is
// open, or the retry envelope was exhausted. Fetch must honor ctx.
type Remote interface {
	Fetch(ctx context.Context, endpoint, key string, req []byte) (body []byte, ok bool)
}

// PeerForwardHeader marks a request forwarded by a cluster peer: the
// value is the forwarding node's advertised address. The receiving node
// answers from its own cache/pool and never re-forwards.
const PeerForwardHeader = "X-Ringserve-Peer"

// withDefaults returns c with every zero field replaced by its default.
// New applies it, and WidenForHuge applies it first so it only ever
// raises limits, never clobbers an unset default.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxM <= 0 {
		c.MaxM = 100_000
	}
	if c.MaxTotalWork <= 0 {
		c.MaxTotalWork = 10_000_000
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.BigRingThreshold == 0 {
		c.BigRingThreshold = 100_000
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	return c
}

// Server is one ringserve daemon instance: handlers, compute pool,
// result cache and its own observability state (counters, per-endpoint
// latency histograms, optional access log). Create it with New; it is
// safe for concurrent use.
type Server struct {
	cfg       Config
	pool      *pool
	cache     *cache
	flight    *flightGroup
	sessions  *sessionRegistry
	mux       *http.ServeMux
	start     time.Time
	stats     *metrics.Counters[stat]
	lat       map[string]*endpointLat
	accessLog *metrics.SpanLog
	// notReady and draining drive GET /v1/readyz: a node reports ready
	// only when it has finished starting (SetReady) and is not shutting
	// down. Load balancers and cluster peers stop routing on not-ready
	// before in-flight work is cut off.
	notReady atomic.Bool
	draining atomic.Bool
	// solverBase is the process-wide solver counter state at New time,
	// so /metrics can attribute solver activity since this server came
	// up (and stay deterministic for a fresh server).
	solverBase metrics.CounterSnapshot[metrics.SolverStat]
}

// New builds a Server from cfg (zero fields defaulted) and starts its
// worker pool. Callers that never Serve should still let drain run via
// Serve/Close semantics — in tests, use httptest with s.Handler() and
// call s.drainPool via Serve's path or simply leak the pool until exit.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	stats := metrics.NewCounters[stat](statRows[:])
	s := &Server{
		cfg:        cfg,
		pool:       newPool(cfg.Workers, cfg.QueueDepth),
		cache:      newCache(cfg.CacheEntries, cfg.CacheShards, stats),
		flight:     newFlightGroup(),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		stats:      stats,
		lat:        make(map[string]*endpointLat, len(latEndpoints)),
		accessLog:  metrics.NewSpanLog(cfg.AccessLog),
		solverBase: metrics.Solver.Snapshot(),
	}
	s.sessions = newSessionRegistry(cfg.MaxSessions, cfg.SessionTTL, stats)
	for _, ep := range latEndpoints {
		s.lat[ep] = &endpointLat{}
	}
	s.mux.HandleFunc("/v1/schedule", s.wrap("schedule", s.handleSchedule))
	s.mux.HandleFunc("/v1/optimal", s.wrap("optimal", s.handleOptimal))
	s.mux.HandleFunc("/v1/compare", s.wrap("compare", s.handleCompare))
	s.mux.HandleFunc("POST /v1/session", s.wrap("session", s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/session/{id}/arrivals", s.wrap("session", s.handleSessionArrivals))
	s.mux.HandleFunc("GET /v1/session/{id}", s.wrap("session", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.wrap("session", s.handleSessionDelete))
	s.mux.HandleFunc("/v1/algorithms", s.wrap("algorithms", s.handleAlgorithms))
	s.mux.HandleFunc("/v1/healthz", s.wrap("healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/readyz", s.wrap("readyz", s.handleReadyz))
	s.mux.HandleFunc("/v1/statusz", s.wrap("statusz", s.handleStatusz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Stats returns a snapshot of this server's own counters, keyed as in
// the /v1/statusz "counters" object.
func (s *Server) Stats() map[string]int64 { return s.stats.Snapshot().Map() }

// EngineComputes returns the successful computes per engine, keyed by
// registry name.
func (s *Server) EngineComputes() map[string]int64 { return engineComputes(s.stats.Snapshot()) }

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the startup half of readiness: a node built with New
// is ready by default, and a cluster node calls SetReady(false) before
// its membership loop runs, then SetReady(true) after the first health
// sweep. Drain state is tracked separately and always wins.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether /v1/readyz would answer 200: started and not
// draining.
func (s *Server) Ready() bool { return !s.notReady.Load() && !s.draining.Load() }

// Close drains the server: admission stops, live streaming sessions are
// stepped to quiescence and flushed as terminal snapshots, queued pool
// work finishes, workers exit. Idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.drainSessions()
	s.pool.drain()
}

// Serve accepts connections on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, let in-flight requests finish
// (bounded by DrainTimeout), drain the compute pool, return nil. A
// non-graceful listener error is returned as-is.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Flip readiness before cutting the listener so peers and load
		// balancers polling /v1/readyz stop routing first.
		s.draining.Store(true)
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		done <- srv.Shutdown(shCtx)
	}()
	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		s.drainSessions()
		s.pool.drain()
		return err
	}
	shErr := <-done
	// In-flight HTTP requests have finished (or been cut off), so no
	// handler holds a session lock: flush surviving sessions, then let
	// the pool run down.
	s.drainSessions()
	s.pool.drain()
	return shErr
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Addr is a helper for callers that want the bound address before
// serving: it returns a started listener on addr (":0" for ephemeral).
func Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// ---- request plumbing ----

// decode reads a body holding exactly one JSON value into v under the
// body-size cap; anything but whitespace after that value is refused.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, instance.ErrInvalid) {
			// Instance validation happens inside UnmarshalJSON; keep
			// that sentinel visible so the 400 carries invalid_instance.
			return err
		}
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: data after the request body's JSON value", errBadRequest)
	}
	return nil
}

// writeJSON marshals body (appending a newline) and writes it with the
// given cache-status header, under an "encode" span when the request is
// traced. The returned bytes are what went on the wire — the caller
// caches them for future byte-identical hits.
func writeJSON(w http.ResponseWriter, ri *reqInfo, status int, cacheStatus string, body any) []byte {
	defer ri.span("encode", "")()
	b, err := json.Marshal(body)
	if err != nil {
		// Response types marshal by construction; treat failure as 500.
		ri.setStatus(http.StatusInternalServerError)
		http.Error(w, `{"error":{"code":"internal","message":"marshal failure"}}`, http.StatusInternalServerError)
		return nil
	}
	b = append(b, '\n')
	writeRaw(w, ri, status, cacheStatus, b)
	return b
}

func writeRaw(w http.ResponseWriter, ri *reqInfo, status int, cacheStatus string, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	if cacheStatus != "" {
		w.Header().Set("X-Ringserve-Cache", cacheStatus)
	}
	ri.setStatus(status)
	ri.setCache(cacheStatus)
	w.WriteHeader(status)
	w.Write(b)
}

// writeError maps err onto the HTTP plane via the exported sentinels,
// echoing the request ID in the error payload (error bodies are never
// cached, so the ID can ride in-band; success bodies stay ID-free to
// keep cached and fresh responses byte-identical). It is the one place
// error responses are counted: 429 as rejected, 504 as canceled, any
// other 4xx as a bad request.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	ri := info(r)
	status, code := errorCode(err)
	switch {
	case status == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		s.stats.Inc(statRejected)
	case status == http.StatusGatewayTimeout:
		s.stats.Inc(statCanceled)
	case status >= 400 && status < 500:
		s.stats.Inc(statBadRequests)
	}
	ri.setError(code)
	body := apiErrorBody{Code: code, Message: err.Error()}
	if ri != nil {
		body.RequestID = ri.id
	}
	writeJSON(w, ri, status, "", apiError{Error: body})
}

// timeout clamps a per-request timeoutMs to the server cap.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.RequestTimeout
	if ms > 0 {
		if req := time.Duration(ms) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// computeSpec describes one cacheable computation on the respond path.
type computeSpec struct {
	// endpoint is the wire endpoint ("schedule"|"optimal"|"compare"),
	// used to route a peer forward.
	endpoint string
	// key is the cache and coalescing identity.
	key       string
	timeoutMs int64
	// engine is the compute engine the stats and histograms attribute
	// the run to.
	engine *engine.Engine
	// peerReq is the canonical request a peer can replay to produce
	// byte-identical output, marshaled only when produce forwards it;
	// nil means "never forward".
	peerReq any
	// compute is the local computation; it runs on a worker goroutine,
	// must be pure in the request, and should honor ctx.
	compute func(ctx context.Context) (any, error)
}

// respond is the shared miss path: the cache first, then the
// singleflight layer (concurrent requests for one key share a single
// production), then — on the leading request only — either a peer fetch
// when a cluster Remote is attached, or a local compute on the worker
// pool. Followers replay the leader's bytes; a failed leader wakes them
// to take their own lap rather than inheriting its error.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, spec computeSpec) {
	s.stats.Inc(statRequests)
	ri := info(r)
	forwarded := r.Header.Get(PeerForwardHeader) != ""
	if forwarded {
		s.stats.Inc(statPeerServed)
	}
	endLookup := ri.span("cache", "")
	body, hit := s.cache.get(spec.key)
	endLookup()
	if hit {
		writeRaw(w, ri, http.StatusOK, "hit", body)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(spec.timeoutMs))
	defer cancel()
	for {
		call, leader := s.flight.join(spec.key)
		if !leader {
			s.stats.Inc(statCoalesced)
			select {
			case <-ctx.Done():
				s.writeError(w, r, ctx.Err())
				return
			case <-call.done:
			}
			if call.body != nil {
				writeRaw(w, ri, http.StatusOK, "coalesced", call.body)
				return
			}
			// The leader failed; its error is its own (a canceled
			// leader must not poison everyone queued behind it). Take
			// another lap — this request may lead the next flight.
			continue
		}
		// Leader. A previous leader may have finished between our cache
		// lookup and our join; re-checking here closes that race, so a
		// key is computed at most once while it stays cached.
		if body, ok := s.cache.peek(spec.key); ok {
			s.flight.leave(spec.key, call, body)
			writeRaw(w, ri, http.StatusOK, "hit", body)
			return
		}
		body, verdict, err := s.produce(ctx, ri, spec, forwarded)
		if err == nil {
			s.cache.put(spec.key, body)
		}
		s.flight.leave(spec.key, call, body)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		writeRaw(w, ri, http.StatusOK, verdict, body)
		return
	}
}

// produce runs the leader's side of a flight: a peer fetch when the
// request is shardable, a cluster Remote is attached and the request is
// not itself a forward; local compute on the worker pool otherwise
// (including the graceful-degradation path when the owner is
// unreachable — Remote reports ok=false and the answer is computed here
// rather than failing the request). It returns the wire body plus the
// X-Ringserve-Cache verdict.
func (s *Server) produce(ctx context.Context, ri *reqInfo, spec computeSpec, forwarded bool) ([]byte, string, error) {
	if rem := s.cfg.Remote; rem != nil && spec.peerReq != nil && !forwarded {
		endPeer := ri.span("peer", "")
		// Request types marshal by construction; a failure just skips
		// the forward.
		req, err := json.Marshal(spec.peerReq)
		ok := err == nil
		var body []byte
		if ok {
			body, ok = rem.Fetch(ctx, spec.endpoint, spec.key, req)
		}
		endPeer()
		if ok {
			return body, "peer", nil
		}
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
	}
	ch, err := s.submit(ctx, ri, spec.engine, spec.compute)
	if err != nil {
		return nil, "", err
	}
	select {
	case <-ctx.Done():
		return nil, "", ctx.Err()
	case o := <-ch:
		if o.err != nil {
			return nil, "", o.err
		}
		endEnc := ri.span("encode", "")
		b, err := json.Marshal(o.body)
		endEnc()
		if err != nil {
			// Response types marshal by construction; treat failure as 500.
			return nil, "", fmt.Errorf("serve: marshal failure: %v", err)
		}
		return append(b, '\n'), "miss", nil
	}
}

// outcome is what one pool compute produced.
type outcome struct {
	body any
	err  error
}

// submit queues f on the worker pool as one compute of engine e and
// returns the channel its outcome arrives on; a full queue is
// errQueueFull. Every endpoint's compute runs in this one envelope: the
// queue-wait split, a context check before f starts (a client that gave
// up while queued costs no worker time), the panic guard, the root
// compute span, the engine's execution-time histogram, and the engine's
// compute counter when f succeeds. The channel is buffered, so the
// worker never blocks on a caller that stopped waiting.
func (s *Server) submit(ctx context.Context, ri *reqInfo, e *engine.Engine, f func(ctx context.Context) (any, error)) (<-chan outcome, error) {
	ch := make(chan outcome, 1)
	ok := s.pool.trySubmit(func(enqueued time.Time, wait time.Duration) {
		ri.observeQueue(enqueued, wait)
		if ctx.Err() != nil {
			ch <- outcome{err: ctx.Err()}
			return
		}
		start := time.Now()
		var o outcome
		o.err = guard(s.stats, func() (err error) {
			o.body, err = f(ctx)
			return err
		})
		if o.err == nil {
			s.stats.Inc(statComputes + stat(e.Index()))
		}
		if ri != nil {
			d := time.Since(start)
			ri.lat.observe(latEngine, e.Index(), d)
			ri.tr.Add("compute", "", start, d)
		}
		ch <- o
	})
	if !ok {
		return nil, errQueueFull
	}
	return ch, nil
}

// ---- endpoints ----

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, fmt.Errorf("%w: use POST", errBadRequest))
		return
	}
	var req ScheduleRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.admissible(req.Instance); err != nil {
		s.writeError(w, r, err)
		return
	}
	eng, err := s.resolve(req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	// Peers replay the request with the engine pinned to our resolution,
	// so nodes with different thresholds still produce byte-identical
	// bodies for one key.
	req.Options.Engine = eng.Name

	// Without arrivals compute runs on the canonical copy, so cached and
	// fresh bodies are byte-identical across all dihedral copies; arrival
	// processor indices break the symmetry, so those requests run on
	// their exact form.
	endCanon := info(r).span("canonicalize", "")
	can, fp := req.Instance.CanonicalFingerprint()
	endCanon()
	runOn := can
	if len(req.Arrivals) > 0 {
		runOn = req.Instance
	}

	ri := info(r)
	s.respond(w, r, computeSpec{
		endpoint:  "schedule",
		key:       scheduleKey(req, fp, eng),
		timeoutMs: req.Options.TimeoutMs,
		engine:    eng,
		peerReq:   ScheduleRequest{Instance: runOn, Algorithm: req.Algorithm, Options: req.Options, Arrivals: req.Arrivals},
		compute: func(ctx context.Context) (any, error) {
			defer ri.span("engine", "compute")()
			defer ri.span("engine="+eng.Name, "engine")()
			return s.computeSchedule(ctx, runOn, fp, req, eng)
		},
	})
}

// resolve picks the engine for a schedule request from the registry; a
// request no engine can run is a 400 (engine.ErrUnsupported).
func (s *Server) resolve(req ScheduleRequest) (*engine.Engine, error) {
	return engine.Resolve(req.Options.Engine, engine.Shape{
		Algorithm: req.Algorithm,
		M:         req.Instance.M,
		Unit:      req.Instance.IsUnit(),
		Arrivals:  len(req.Arrivals) > 0,
	}, s.cfg.BigRingThreshold)
}

// scheduleKey is a schedule request's cache and cluster-shard identity,
// given the canonical fingerprint fp and the resolved engine. Without
// arrivals the rotation/reflection symmetry holds, so fp identifies the
// instance; with arrivals the request is keyed by its exact form.
func scheduleKey(req ScheduleRequest, fp instance.Fingerprint, eng *engine.Engine) string {
	ident := fp.String()
	if len(req.Arrivals) > 0 {
		raw, _ := json.Marshal(req.Instance)
		sum := sha256.Sum256(append(raw, []byte(arrivalsKey(req.Arrivals))...))
		ident = fmt.Sprintf("exact-%x", sum)
	}
	return fmt.Sprintf("schedule|%s|%s|steps=%d|bidir=%t|mig=%d|engine=%s",
		ident, req.Algorithm, req.Options.MaxSteps, req.Options.Bidirectional, req.Options.MigrationBudget, eng.Name)
}

// ScheduleKey returns the key a schedule request is cached and sharded
// under on this server, or the error the request is refused with.
func (s *Server) ScheduleKey(req ScheduleRequest) (string, error) {
	eng, err := s.resolve(req)
	if err != nil {
		return "", err
	}
	return scheduleKey(req, req.Instance.Fingerprint(), eng), nil
}

func (s *Server) computeSchedule(ctx context.Context, in instance.Instance, fp instance.Fingerprint, req ScheduleRequest, eng *engine.Engine) (any, error) {
	resp := ScheduleResponse{
		Schema:      Schema,
		Fingerprint: fp.String(),
		Algorithm:   req.Algorithm,
		Engine:      eng.Name,
	}
	if eng.Run == nil {
		// The online engine: the one whose result is not a sim.Result.
		oin, err := onlineInstance(in, req.Arrivals)
		if err != nil {
			return nil, err
		}
		res, err := online.RunContext(ctx, oin, online.Params{
			Bidirectional:   req.Options.Bidirectional,
			MigrationBudget: req.Options.MigrationBudget,
		})
		if err != nil {
			return nil, err
		}
		resp.Makespan, resp.Steps, resp.JobHops = res.Makespan, res.Steps, res.JobHops
		resp.MaxFlowTime = res.MaxFlowTime
		resp.Migrated = res.Migrated
		resp.LowerBound = online.LowerBound(oin)
		return resp, nil
	}
	alg, opts, err := engine.Static(req.Algorithm)
	if err != nil {
		return nil, err
	}
	opts.MaxSteps, opts.Ctx = req.Options.MaxSteps, ctx
	res, err := eng.Run(in, alg, opts)
	if err != nil {
		return nil, err
	}
	resp.Makespan, resp.Steps = res.Makespan, res.Steps
	resp.JobHops, resp.Messages = res.JobHops, res.Messages
	resp.Utilization = res.Utilization()
	if opts.LinkCapacity > 0 {
		resp.LowerBound = lb.Capacitated(in)
	} else {
		resp.LowerBound = lb.Best(in)
	}
	return resp, nil
}

// onlineInstance lifts a unit instance plus arrival batches into the
// online model's form (time-0 batches from the instance's unit works).
func onlineInstance(in instance.Instance, arrivals []ArrivalBatch) (online.Instance, error) {
	var batches []online.Batch
	for i, n := range in.Unit {
		if n > 0 {
			batches = append(batches, online.Batch{Time: 0, Proc: i, Count: n})
		}
	}
	for _, a := range arrivals {
		batches = append(batches, online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count})
	}
	oin, err := online.NewInstance(in.M, batches)
	if err != nil {
		return online.Instance{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return oin, nil
}

func (s *Server) handleOptimal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, fmt.Errorf("%w: use POST", errBadRequest))
		return
	}
	var req OptimalRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.admissible(req.Instance); err != nil {
		s.writeError(w, r, err)
		return
	}
	if !req.Instance.IsUnit() {
		s.writeError(w, r, fmt.Errorf("%w: the exact solver requires a unit-job instance", errBadRequest))
		return
	}
	ri := info(r)
	endCanon := ri.span("canonicalize", "")
	can, fp := req.Instance.CanonicalFingerprint()
	endCanon()
	key := fmt.Sprintf("optimal|%s|cap=%t|%s|exact=%t",
		fp.String(), req.Capacitated, optKey(req.Limits), req.RequireExact)

	s.respond(w, r, computeSpec{
		endpoint:  "optimal",
		key:       key,
		timeoutMs: req.Limits.DeadlineMs,
		engine:    engine.Serving("/v1/optimal"),
		peerReq:   OptimalRequest{Instance: can, Capacitated: req.Capacitated, Limits: req.Limits, RequireExact: req.RequireExact},
		compute: func(ctx context.Context) (any, error) {
			defer ri.span("solver", "compute")()
			resp, err := solveOptimal(ctx, can, fp, req.Capacitated, req.Limits)
			if err != nil {
				return nil, err
			}
			if req.RequireExact && !resp.Exact {
				return nil, fmt.Errorf("serve: solver fell back to the %s lower bound %d under the given limits: %w",
					resp.Method, resp.Length, opt.ErrLimitExceeded)
			}
			return resp, nil
		},
	})
}

// solveOptimal runs the exact solver under wire limits plus ctx.
func solveOptimal(ctx context.Context, can instance.Instance, fp instance.Fingerprint, capacitated bool, l OptimalLimits) (OptimalResponse, error) {
	lim := opt.Limits{
		MaxArcs:   l.MaxArcs,
		UpperHint: l.UpperHint,
		Ctx:       ctx,
	}
	if l.DeadlineMs > 0 {
		lim.Deadline = time.Duration(l.DeadlineMs) * time.Millisecond
	}
	var res opt.Result
	if capacitated {
		res = opt.Capacitated(can, lim)
	} else {
		res = opt.Uncapacitated(can, lim)
	}
	return OptimalResponse{
		Schema:      Schema,
		Fingerprint: fp.String(),
		Length:      res.Length,
		Exact:       res.Exact,
		Method:      res.Method,
		FlowCalls:   res.FlowCalls,
	}, nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, fmt.Errorf("%w: use POST", errBadRequest))
		return
	}
	var req CompareRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.admissible(req.Instance); err != nil {
		s.writeError(w, r, err)
		return
	}
	if !req.Instance.IsUnit() {
		s.writeError(w, r, fmt.Errorf("%w: compare needs the exact solver, which requires a unit-job instance", errBadRequest))
		return
	}
	algs, err := normalizeAlgorithms(req.Algorithms)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ri := info(r)
	endCanon := ri.span("canonicalize", "")
	can, fp := req.Instance.CanonicalFingerprint()
	endCanon()
	key := fmt.Sprintf("compare|%s|algs=%v|%s", fp.String(), algs, optKey(req.Limits))

	s.respond(w, r, computeSpec{
		endpoint:  "compare",
		key:       key,
		timeoutMs: req.timeoutMs(),
		engine:    engine.Serving("/v1/compare"),
		peerReq:   CompareRequest{Instance: can, Algorithms: algs, Limits: req.Limits, Options: req.Options, TimeoutMs: req.TimeoutMs},
		compute: func(ctx context.Context) (any, error) {
			endSolver := ri.span("solver", "compute")
			optResp, err := solveOptimal(ctx, can, fp, false, req.Limits)
			endSolver()
			if err != nil {
				return nil, err
			}
			defer ri.span("engine", "compute")()
			resp := CompareResponse{
				Schema:      Schema,
				Fingerprint: fp.String(),
				Opt:         optResp,
				Runs:        make(map[string]CompareRun, len(algs)),
			}
			var bestSpan int64 = -1
			for _, name := range algs {
				spec, err := bucket.ByName(name)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", errBadRequest, err)
				}
				res, err := sim.Run(can, spec, sim.Options{Ctx: ctx})
				if err != nil {
					return nil, err
				}
				run := CompareRun{
					Makespan: res.Makespan,
					JobHops:  res.JobHops,
					Messages: res.Messages,
				}
				if optResp.Length > 0 {
					run.Factor = float64(res.Makespan) / float64(optResp.Length)
				}
				resp.Runs[name] = run
				if bestSpan < 0 || res.Makespan < bestSpan {
					bestSpan = res.Makespan
					resp.Best = name
				}
			}
			return resp, nil
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz is GET /v1/readyz: distinct from /v1/healthz liveness,
// it answers 503 while the node is starting (a cluster node holds
// not-ready until its first health sweep completes) or draining, so
// peers and load balancers stop routing before in-flight work is cut
// off.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"draining\"}\n"))
	case s.notReady.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("{\"status\":\"starting\"}\n"))
	default:
		w.Write([]byte("{\"status\":\"ready\"}\n"))
	}
}
