package metrics

import "sync/atomic"

// ServeStats counts one serving daemon's request and cache activity:
// atomic counters that ringserve republishes via expvar, /v1/statusz
// and /metrics. Unlike SolverStats the block is per-Server, not
// process-wide — each serve.Server owns its own ServeStats (the zero
// value is ready to use), so two daemons in one process report their
// own traffic instead of silently sharing one set of counters. One
// block is shared by every handler goroutine of its server, so hit
// rates stay consistent under concurrent load.
type ServeStats struct {
	requests   atomic.Int64 // API requests accepted for processing
	cacheHits  atomic.Int64 // responses served from the result cache
	cacheMiss  atomic.Int64 // responses computed and inserted
	evictions  atomic.Int64 // cache entries evicted by LRU pressure
	rejected   atomic.Int64 // requests refused with 429 (queue full)
	canceled   atomic.Int64 // requests abandoned by deadline/cancel
	panicked   atomic.Int64 // worker panics isolated to one request
	badRequest atomic.Int64 // malformed requests refused with 4xx
	computes   atomic.Int64 // engine/solver runs actually executed on the pool
	coalesced  atomic.Int64 // requests that shared another in-flight computation
	peerServed atomic.Int64 // requests answered on behalf of a cluster peer

	sessions        atomic.Int64 // scheduling sessions created
	sessionsEvicted atomic.Int64 // sessions evicted by idle TTL
	sessionAppends  atomic.Int64 // arrival-append calls accepted into a session
}

// Request records one accepted API request.
func (s *ServeStats) Request() { s.requests.Add(1) }

// CacheHit records a response served from the canonical result cache.
func (s *ServeStats) CacheHit() { s.cacheHits.Add(1) }

// CacheMiss records a response computed because the cache had no entry.
func (s *ServeStats) CacheMiss() { s.cacheMiss.Add(1) }

// Eviction records one cache entry displaced by LRU pressure.
func (s *ServeStats) Eviction() { s.evictions.Add(1) }

// Rejected records a request refused with 429 because the queue was full.
func (s *ServeStats) Rejected() { s.rejected.Add(1) }

// Canceled records a request abandoned because its deadline expired or
// its client went away before a result was produced.
func (s *ServeStats) Canceled() { s.canceled.Add(1) }

// Panicked records a worker panic contained to a single request.
func (s *ServeStats) Panicked() { s.panicked.Add(1) }

// BadRequest records a request refused for being malformed or over the
// admission caps.
func (s *ServeStats) BadRequest() { s.badRequest.Add(1) }

// Compute records one engine/solver run actually executed on the pool
// (cache hits, coalesced followers and peer fetches never count: the
// cluster-wide sum of this counter is the number of distinct
// computations performed).
func (s *ServeStats) Compute() { s.computes.Add(1) }

// SessionCreated records one streaming scheduling session created.
func (s *ServeStats) SessionCreated() { s.sessions.Add(1) }

// SessionEvicted records one session evicted by its idle TTL.
func (s *ServeStats) SessionEvicted() { s.sessionsEvicted.Add(1) }

// SessionAppend records one accepted arrival-append call on a session.
func (s *ServeStats) SessionAppend() { s.sessionAppends.Add(1) }

// Coalesced records a request that waited on another request's
// in-flight computation instead of starting its own.
func (s *ServeStats) Coalesced() { s.coalesced.Add(1) }

// PeerServed records a request this node answered on behalf of a
// cluster peer (it arrived with the peer-forward header).
func (s *ServeStats) PeerServed() { s.peerServed.Add(1) }

// ServeSnapshot is a point-in-time copy of the serving counters.
type ServeSnapshot struct {
	Requests        int64 `json:"requests"`
	CacheHits       int64 `json:"cacheHits"`
	CacheMisses     int64 `json:"cacheMisses"`
	Evictions       int64 `json:"evictions"`
	Rejected        int64 `json:"rejected"`
	Canceled        int64 `json:"canceled"`
	Panics          int64 `json:"panics"`
	BadRequests     int64 `json:"badRequests"`
	Computes        int64 `json:"computes"`
	Coalesced       int64 `json:"coalesced"`
	PeerServed      int64 `json:"peerServed"`
	SessionsCreated int64 `json:"sessionsCreated"`
	SessionsEvicted int64 `json:"sessionsEvicted"`
	SessionAppends  int64 `json:"sessionAppends"`
}

// HitRate returns the cache hit fraction (0 when nothing was looked up).
func (s ServeSnapshot) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Snapshot returns the current counter values.
func (s *ServeStats) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		Requests:        s.requests.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMiss.Load(),
		Evictions:       s.evictions.Load(),
		Rejected:        s.rejected.Load(),
		Canceled:        s.canceled.Load(),
		Panics:          s.panicked.Load(),
		BadRequests:     s.badRequest.Load(),
		Computes:        s.computes.Load(),
		Coalesced:       s.coalesced.Load(),
		PeerServed:      s.peerServed.Load(),
		SessionsCreated: s.sessions.Load(),
		SessionsEvicted: s.sessionsEvicted.Load(),
		SessionAppends:  s.sessionAppends.Load(),
	}
}

// Sub returns the counter deltas accumulated since an earlier snapshot.
func (a ServeSnapshot) Sub(b ServeSnapshot) ServeSnapshot {
	return ServeSnapshot{
		Requests:        a.Requests - b.Requests,
		CacheHits:       a.CacheHits - b.CacheHits,
		CacheMisses:     a.CacheMisses - b.CacheMisses,
		Evictions:       a.Evictions - b.Evictions,
		Rejected:        a.Rejected - b.Rejected,
		Canceled:        a.Canceled - b.Canceled,
		Panics:          a.Panics - b.Panics,
		BadRequests:     a.BadRequests - b.BadRequests,
		Computes:        a.Computes - b.Computes,
		Coalesced:       a.Coalesced - b.Coalesced,
		PeerServed:      a.PeerServed - b.PeerServed,
		SessionsCreated: a.SessionsCreated - b.SessionsCreated,
		SessionsEvicted: a.SessionsEvicted - b.SessionsEvicted,
		SessionAppends:  a.SessionAppends - b.SessionAppends,
	}
}
