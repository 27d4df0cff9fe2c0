package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ringsched/internal/engine"
	"ringsched/internal/metrics"
)

// This file is the request-observability plumbing: request IDs, the
// per-request span trace feeding the -access-log JSONL stream, and the
// recording of the per-endpoint latency histograms (declared in
// metrics.go).
//
// Every request gets a reqInfo carried in its context. Handlers and the
// shared respond path annotate it (status, cache verdict, error code,
// spans); the wrap middleware seals it into the total-latency histogram
// and, when the access log is on, one ringsched.span/v1 record. All the
// annotation helpers are nil-safe, so the hot path stays branch-cheap
// and nothing needs to care whether tracing is enabled.

// latEndpoints lists the instrumented endpoints in exposition order.
var latEndpoints = []string{"schedule", "optimal", "compare", "session"}

// sessionEngine is the engine streaming sessions run on.
var sessionEngine = engine.Serving("/v1/session")

// reqInfo is the per-request observability record, carried in the
// request context from the wrap middleware down into the compute
// closure running on a worker goroutine.
type reqInfo struct {
	id    string
	op    string
	start time.Time
	tr    *metrics.Trace // nil unless the access log is enabled
	lat   *endpointLat   // nil for uninstrumented endpoints

	status  atomic.Int32
	cache   atomic.Pointer[string]
	errCode atomic.Pointer[string]
}

type reqInfoKey struct{}

// info returns the request's reqInfo (nil when the handler runs outside
// wrap, e.g. in a unit test poking a method directly).
func info(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// span opens a named span on the request trace and returns its closer.
// Nil-safe on every level.
func (ri *reqInfo) span(name, parent string) func() {
	if ri == nil {
		return func() {}
	}
	return ri.tr.StartSpan(name, parent)
}

// setStatus records the HTTP status written for the request.
func (ri *reqInfo) setStatus(status int) {
	if ri != nil {
		ri.status.Store(int32(status))
	}
}

// setCache records the result-cache verdict ("hit"/"miss").
func (ri *reqInfo) setCache(v string) {
	if ri != nil && v != "" {
		ri.cache.Store(&v)
	}
}

// setError records the wire error code of a failed request.
func (ri *reqInfo) setError(code string) {
	if ri != nil {
		ri.errCode.Store(&code)
	}
}

// observeQueue feeds the queue-wait split: the histogram always, the
// span when tracing. start is the enqueue stamp the pool recorded.
func (ri *reqInfo) observeQueue(start time.Time, wait time.Duration) {
	if ri == nil {
		return
	}
	ri.lat.observe(latQueue, 0, wait)
	ri.tr.Add("queue", "", start, wait)
}

// loadString unwraps an atomic string pointer ("" when unset).
func loadString(p *atomic.Pointer[string]) string {
	if s := p.Load(); s != nil {
		return *s
	}
	return ""
}

// wrap is the observability middleware: it assigns the request ID
// (honoring an inbound X-Request-Id), echoes it on the response, stamps
// the total-latency histogram, and emits the access-log record.
func (s *Server) wrap(op string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.lat[op]
	return func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{id: requestID(r), op: op, start: time.Now(), lat: lat}
		if s.accessLog != nil {
			ri.tr = metrics.NewTrace()
		}
		w.Header().Set("X-Request-Id", ri.id)
		h(w, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
		lat.observe(latTotal, 0, time.Since(ri.start))
		if s.accessLog != nil {
			rec := ri.tr.Record(ri.id, op)
			rec.Status = int(ri.status.Load())
			rec.Cache = loadString(&ri.cache)
			rec.Error = loadString(&ri.errCode)
			s.accessLog.Write(rec)
		}
	}
}

// reqIDPrefix distinguishes processes; reqIDSeq distinguishes requests
// within one. Together they make generated IDs unique without a
// per-request syscall or allocation beyond the string itself.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Int64
)

// requestID honors a sane inbound X-Request-Id and otherwise mints one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 128 && cleanHeaderValue(id) {
		return id
	}
	return fmt.Sprintf("%s-%08x", reqIDPrefix, reqIDSeq.Add(1))
}

// cleanHeaderValue rejects IDs that could corrupt a log line or header.
func cleanHeaderValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
