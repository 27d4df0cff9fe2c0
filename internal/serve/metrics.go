package serve

import (
	"net/http"
	"time"

	"ringsched/internal/engine"
	"ringsched/internal/metrics"
)

// The server's metrics are declared once, in three tables: counters
// (statRows), gauges (gaugeRows) and latency families (latRows). GET
// /metrics and GET /v1/statusz both render from the rows, so adding a
// metric costs one row and the two surfaces cannot drift apart.

// stat indexes the server's counter table, statRows. Adding a counter
// costs one entry here and one row there.
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

// gauge declares one server gauge: its top-level /v1/statusz key, its
// Prometheus family and help text, and how to read it.
type gauge struct {
	key, name, help string
	value           func(*Server) int64
}

// gaugeRows declares the server's gauges in exposition order.
var gaugeRows = [...]gauge{
	{"workers", "ringserve_workers", "Compute pool size.", func(s *Server) int64 { return int64(s.cfg.Workers) }},
	{"workersBusy", "ringserve_workers_busy", "Workers currently executing a task.", func(s *Server) int64 { return s.pool.busyWorkers() }},
	{"queueLen", "ringserve_queue_length", "Tasks queued but not yet started.", func(s *Server) int64 { return int64(s.pool.queueLen()) }},
	{"queueDepth", "ringserve_queue_capacity", "Queue depth before 429 backpressure.", func(s *Server) int64 { return int64(s.cfg.QueueDepth) }},
	{"cacheEntries", "ringserve_cache_entries", "Entries in the result cache.", func(s *Server) int64 { return int64(s.cache.len()) }},
	{"cacheCap", "ringserve_cache_capacity", "Result cache capacity.", func(s *Server) int64 { return int64(s.cfg.CacheEntries) }},
	{"sessions", "ringserve_sessions_active", "Live streaming sessions.", func(s *Server) int64 { return int64(s.sessions.len()) }},
	{"sessionsCap", "ringserve_sessions_capacity", "Live-session cap before 429 backpressure.", func(s *Server) int64 { return int64(s.cfg.MaxSessions) }},
}

// latKind indexes the latency table, latRows, and each endpoint's
// histograms (endpointLat).
type latKind int

const (
	latTotal latKind = iota
	latQueue
	latEngine
	numLat
)

// latFamily declares one latency family: its key under each endpoint
// in /v1/statusz "latency", its Prometheus family and help text, and
// whether it keeps one histogram per engine (indexed like engine.All)
// or a single one.
type latFamily struct {
	key, name, help string
	byEngine        bool
}

// latRows declares the per-endpoint latency families in exposition
// order. Engine time splits by engine, so huge-ring and session
// latencies never fold into the pool's percentiles.
var latRows = [numLat]latFamily{
	latTotal:  {"total", "ringserve_request_duration_seconds", "Total request latency per endpoint.", false},
	latQueue:  {"queue", "ringserve_queue_wait_seconds", "Time requests spent queued before a worker started them.", false},
	latEngine: {"engine", "ringserve_engine_seconds", "Time requests spent executing on a worker (engine and solver), by compute engine.", true},
}

// endpointLat is one endpoint's histograms: row f of latRows keeps its
// histogram in [f][0], or one per engine in [f][engine index].
type endpointLat [numLat][len(engine.All)]metrics.Histogram

// observe records d in family f, for engine index e when f splits by
// engine: one histogram observe, with no lookup or allocation.
func (l *endpointLat) observe(f latKind, e int, d time.Duration) {
	if l != nil {
		l[f][e].Observe(d)
	}
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
	s.stats.Snapshot().WriteProm(p)

	for _, g := range gaugeRows {
		p.Gauge(g.name, g.help, metrics.PromSample{Value: float64(g.value(s))})
	}
	for f, row := range latRows {
		var series []metrics.PromHistogram
		for _, ep := range latEndpoints {
			label := metrics.PromLabel{Name: "endpoint", Value: ep}
			hs := &s.lat[ep][f]
			if !row.byEngine {
				series = append(series, metrics.PromHistogram{Labels: []metrics.PromLabel{label}, Snapshot: hs[0].Snapshot()})
				continue
			}
			for i := range engine.All {
				series = append(series, metrics.PromHistogram{
					Labels:   []metrics.PromLabel{label, {Name: "engine", Value: engine.All[i].Name}},
					Snapshot: hs[i].Snapshot(),
				})
			}
		}
		p.Histogram(row.name, row.help, series...)
	}

	metrics.Solver.Snapshot().Sub(s.solverBase).WriteProm(p)

	if s.cfg.ExtraProm != nil {
		s.cfg.ExtraProm(p)
	}
	p.Flush()
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, info(r), http.StatusOK, "", s.status())
}

// status is the /v1/statusz document: the gauges at the top level,
// "counters" and "engineComputes" from one counter snapshot, and per
// endpoint a p50/p90/p99, mean and count digest of each latency family
// (per engine, keyed by registry name, for a family that splits by
// engine). ExtraStatus, when set, adds the "cluster" block.
func (s *Server) status() map[string]any {
	snap := s.stats.Snapshot()
	hits, misses := snap.Get(statCacheHits), snap.Get(statCacheMisses)
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	latency := make(map[string]map[string]any, len(latEndpoints))
	for _, ep := range latEndpoints {
		digest := make(map[string]any, numLat)
		for f, row := range latRows {
			hs := &s.lat[ep][f]
			if !row.byEngine {
				digest[row.key] = hs[0].Snapshot().Summary()
				continue
			}
			byEngine := make(map[string]metrics.QuantileSummary, len(engine.All))
			for i := range engine.All {
				byEngine[engine.All[i].Name] = hs[i].Snapshot().Summary()
			}
			digest[row.key] = byEngine
		}
		latency[ep] = digest
	}
	doc := map[string]any{
		"schema":         Schema,
		"uptimeSec":      time.Since(s.start).Seconds(),
		"hitRate":        hitRate,
		"ready":          s.Ready(),
		"counters":       snap.Map(),
		"engineComputes": engineComputes(snap),
		"latency":        latency,
	}
	for _, g := range gaugeRows {
		doc[g.key] = g.value(s)
	}
	if s.cfg.ExtraStatus != nil {
		doc["cluster"] = s.cfg.ExtraStatus()
	}
	return doc
}
