package serve

import (
	"net/http"

	"ringsched/internal/engine"
	"ringsched/internal/metrics"
)

// stat indexes the server's counter table, statRows. Adding a counter
// costs one entry here and one row there: /metrics, /v1/statusz
// "counters" and the ringserve expvar all render from the row.
type stat int

const (
	statRequests stat = iota
	statBadRequests
	statRejected
	statCanceled
	statPanics
	statCacheHits
	statCacheMisses
	statEvictions
	// statComputes is the first of len(engine.All) rows, one per engine
	// indexed like engine.All; statusz "computes" is their sum.
	statComputes
	statCoalesced = stat(iota + len(engine.All) - 1) // after the engine rows
	statPeerServed
	statSessionsCreated
	statSessionsEvicted
	statSessionAppends
	numStats
)

// statRows declares the server's counters in exposition order.
var statRows = func() [numStats]metrics.Counter {
	rows := [numStats]metrics.Counter{
		statRequests:        {Key: "requests", Name: "ringserve_requests_total", Help: "API requests accepted for processing."},
		statBadRequests:     {Key: "badRequests", Name: "ringserve_bad_requests_total", Help: "Requests refused as malformed or over admission caps."},
		statRejected:        {Key: "rejected", Name: "ringserve_rejected_total", Help: "Requests shed with 429 because the compute queue was full."},
		statCanceled:        {Key: "canceled", Name: "ringserve_canceled_total", Help: "Requests abandoned by deadline or client cancellation."},
		statPanics:          {Key: "panics", Name: "ringserve_panics_total", Help: "Worker panics isolated to a single request."},
		statCacheHits:       {Key: "cacheHits", Name: "ringserve_cache_hits_total", Help: "Responses served from the canonical result cache."},
		statCacheMisses:     {Key: "cacheMisses", Name: "ringserve_cache_misses_total", Help: "Responses computed because the cache had no entry."},
		statEvictions:       {Key: "evictions", Name: "ringserve_cache_evictions_total", Help: "Cache entries displaced by LRU pressure."},
		statCoalesced:       {Key: "coalesced", Name: "ringserve_coalesced_total", Help: "Requests that shared another request's in-flight computation."},
		statPeerServed:      {Key: "peerServed", Name: "ringserve_peer_served_total", Help: "Requests answered on behalf of a cluster peer."},
		statSessionsCreated: {Key: "sessionsCreated", Name: "ringserve_sessions_created_total", Help: "Streaming scheduling sessions created."},
		statSessionsEvicted: {Key: "sessionsEvicted", Name: "ringserve_sessions_evicted_total", Help: "Streaming sessions evicted by idle TTL."},
		statSessionAppends:  {Key: "sessionAppends", Name: "ringserve_session_appends_total", Help: "Arrival-append calls accepted into a streaming session."},
	}
	// Solver runs count toward the engine serving their endpoint.
	computes := metrics.Counter{Name: "ringserve_computes_total", Help: "Engine/solver runs actually executed on the worker pool, by compute engine."}
	for i := range engine.All {
		rows[statComputes+stat(i)] = computes.Labeled("computes", "engine", engine.All[i].Name)
	}
	return rows
}()

// engineComputes reads the per-engine compute rows of snap, keyed by
// registry name; their sum is snap's "computes".
func engineComputes(snap metrics.CounterSnapshot[stat]) map[string]int64 {
	out := make(map[string]int64, len(engine.All))
	for i := range engine.All {
		out[engine.All[i].Name] = snap.Get(statComputes + stat(i))
	}
	return out
}

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
	s.stats.Snapshot().WriteProm(p)

	one := func(v int64) []metrics.PromSample {
		return []metrics.PromSample{{Value: float64(v)}}
	}
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

	metrics.Solver.Snapshot().Sub(s.solverBase).WriteProm(p)

	if s.cfg.ExtraProm != nil {
		s.cfg.ExtraProm(p)
	}
}
