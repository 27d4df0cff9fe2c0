package serve

import (
	"net/http"

	"ringsched/internal/engine"
	"ringsched/internal/metrics"
)

// handleMetrics is GET /metrics: the Prometheus text exposition of the
// server's full observability surface — request/cache/pool counters,
// pool occupancy gauges, the per-endpoint latency histograms, and the
// solver probe counters attributed since this server started. Families,
// samples and labels are emitted in a fixed order, so the output for a
// given counter state is byte-stable (the golden test relies on it).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PromContentType)
	p := metrics.NewPromWriter(w)
	s.writeProm(p)
	p.Flush()
}

// writeProm renders the exposition onto p (split out so tests can
// render to a buffer without an HTTP round trip).
func (s *Server) writeProm(p *metrics.PromWriter) {
	snap := s.stats.Snapshot()
	one := func(v int64) []metrics.PromSample {
		return []metrics.PromSample{{Value: float64(v)}}
	}

	p.Counter("ringserve_requests_total", "API requests accepted for processing.", one(snap.Requests)...)
	p.Counter("ringserve_bad_requests_total", "Requests refused as malformed or over admission caps.", one(snap.BadRequests)...)
	p.Counter("ringserve_rejected_total", "Requests shed with 429 because the compute queue was full.", one(snap.Rejected)...)
	p.Counter("ringserve_canceled_total", "Requests abandoned by deadline or client cancellation.", one(snap.Canceled)...)
	p.Counter("ringserve_panics_total", "Worker panics isolated to a single request.", one(snap.Panics)...)
	p.Counter("ringserve_cache_hits_total", "Responses served from the canonical result cache.", one(snap.CacheHits)...)
	p.Counter("ringserve_cache_misses_total", "Responses computed because the cache had no entry.", one(snap.CacheMisses)...)
	p.Counter("ringserve_cache_evictions_total", "Cache entries displaced by LRU pressure.", one(snap.Evictions)...)
	// Computes carry an engine label, one sample per registry engine;
	// solver runs count toward the engine serving their endpoint.
	computes := make([]metrics.PromSample, len(engine.All))
	for i := range engine.All {
		computes[i] = metrics.PromSample{Labels: []metrics.PromLabel{{Name: "engine", Value: engine.All[i].Name}}, Value: float64(s.computes[i].Load())}
	}
	p.Counter("ringserve_computes_total", "Engine/solver runs actually executed on the worker pool, by compute engine.", computes...)
	p.Counter("ringserve_coalesced_total", "Requests that shared another request's in-flight computation.", one(snap.Coalesced)...)
	p.Counter("ringserve_peer_served_total", "Requests answered on behalf of a cluster peer.", one(snap.PeerServed)...)
	p.Counter("ringserve_sessions_created_total", "Streaming scheduling sessions created.", one(snap.SessionsCreated)...)
	p.Counter("ringserve_sessions_evicted_total", "Streaming sessions evicted by idle TTL.", one(snap.SessionsEvicted)...)
	p.Counter("ringserve_session_appends_total", "Arrival-append calls accepted into a streaming session.", one(snap.SessionAppends)...)

	p.Gauge("ringserve_workers", "Compute pool size.", one(int64(s.cfg.Workers))...)
	p.Gauge("ringserve_workers_busy", "Workers currently executing a task.", one(s.pool.busyWorkers())...)
	p.Gauge("ringserve_queue_length", "Tasks queued but not yet started.", one(int64(s.pool.queueLen()))...)
	p.Gauge("ringserve_queue_capacity", "Queue depth before 429 backpressure.", one(int64(s.cfg.QueueDepth))...)
	p.Gauge("ringserve_cache_entries", "Entries in the result cache.", one(int64(s.cache.len()))...)
	p.Gauge("ringserve_cache_capacity", "Result cache capacity.", one(int64(s.cfg.CacheEntries))...)
	p.Gauge("ringserve_sessions_active", "Live streaming sessions.", one(int64(s.sessions.len()))...)
	p.Gauge("ringserve_sessions_capacity", "Live-session cap before 429 backpressure.", one(int64(s.cfg.MaxSessions))...)

	var total, queue, exec []metrics.PromHistogram
	for _, ep := range latEndpoints {
		lat, label := s.lat[ep], metrics.PromLabel{Name: "endpoint", Value: ep}
		total = append(total, metrics.PromHistogram{Labels: []metrics.PromLabel{label}, Snapshot: lat.total.Snapshot()})
		queue = append(queue, metrics.PromHistogram{Labels: []metrics.PromLabel{label}, Snapshot: lat.queue.Snapshot()})
		for i := range engine.All {
			exec = append(exec, metrics.PromHistogram{
				Labels:   []metrics.PromLabel{label, {Name: "engine", Value: engine.All[i].Name}},
				Snapshot: lat.byEngine[i].Snapshot(),
			})
		}
	}
	p.Histogram("ringserve_request_duration_seconds", "Total request latency per endpoint.", total...)
	p.Histogram("ringserve_queue_wait_seconds", "Time requests spent queued before a worker started them.", queue...)
	p.Histogram("ringserve_engine_seconds", "Time requests spent executing on a worker (engine and solver), by compute engine.", exec...)

	solver := metrics.Solver.Snapshot().Sub(s.solverBase)
	p.Counter("ringsched_solver_probes_total", "Feasibility max-flow probes since this server started.", one(solver.Probes)...)
	p.Counter("ringsched_solver_memo_hits_total", "Probes answered by the monotone feasibility memo.", one(solver.MemoHits)...)
	p.Counter("ringsched_solver_warm_reuses_total", "Probes served by resetting a warm flow network.", one(solver.WarmReuses)...)
	p.Counter("ringsched_solver_cold_builds_total", "Feasibility networks built from scratch.", one(solver.ColdBuilds)...)

	if s.cfg.ExtraProm != nil {
		s.cfg.ExtraProm(p)
	}
}
