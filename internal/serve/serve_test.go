package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ringsched/internal/instance"
	"ringsched/internal/metrics"
	"ringsched/internal/opt"
	"ringsched/internal/sim"
)

// statuszResponse decodes the /v1/statusz document.
type statuszResponse struct {
	Schema         string                        `json:"schema"`
	UptimeSec      float64                       `json:"uptimeSec"`
	Workers        int                           `json:"workers"`
	WorkersBusy    int64                         `json:"workersBusy"`
	QueueLen       int                           `json:"queueLen"`
	QueueDepth     int                           `json:"queueDepth"`
	CacheEntries   int                           `json:"cacheEntries"`
	CacheCap       int                           `json:"cacheCap"`
	HitRate        float64                       `json:"hitRate"`
	Ready          bool                          `json:"ready"`
	Sessions       int                           `json:"sessions"`
	SessionsCap    int                           `json:"sessionsCap"`
	Counters       map[string]int64              `json:"counters"`
	EngineComputes map[string]int64              `json:"engineComputes"`
	Latency        map[string]endpointLatencyOut `json:"latency"`
}

// endpointLatencyOut decodes one endpoint's latency digest: the total
// and the queue wait, and the execution time per engine.
type endpointLatencyOut struct {
	Total  metrics.QuantileSummary            `json:"total"`
	Queue  metrics.QuantileSummary            `json:"queue"`
	Engine map[string]metrics.QuantileSummary `json:"engine"`
}

// newTestServer builds a server with small, deterministic knobs and
// registers pool drain as cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// post issues a JSON POST against the handler and returns the recorder.
func post(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

func unitInstance(t *testing.T, works []int64) instance.Instance {
	t.Helper()
	return instance.NewUnit(works)
}

func TestScheduleEndpointGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{12, 0, 0, 4, 0, 0, 0, 1})

	w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Ringserve-Cache"); got != "miss" {
		t.Fatalf("first call cache header = %q, want miss", got)
	}
	resp := decodeBody[ScheduleResponse](t, w)
	if resp.Schema != Schema {
		t.Fatalf("schema = %q, want %q", resp.Schema, Schema)
	}
	if resp.Algorithm != "A1" {
		t.Fatalf("algorithm = %q", resp.Algorithm)
	}
	if resp.Makespan < resp.LowerBound || resp.LowerBound < 1 {
		t.Fatalf("makespan %d vs lower bound %d inconsistent", resp.Makespan, resp.LowerBound)
	}
	if resp.Fingerprint != in.Fingerprint().String() {
		t.Fatalf("fingerprint = %q, want %q", resp.Fingerprint, in.Fingerprint().String())
	}

	// The same instance again: a hit with a byte-identical body.
	w2 := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"})
	if got := w2.Header().Get("X-Ringserve-Cache"); got != "hit" {
		t.Fatalf("second call cache header = %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("cached body differs from computed body:\n%s\n%s", w.Body, w2.Body)
	}
}

func TestScheduleCapAndOnline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{9, 0, 3, 0})

	w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "cap"})
	if w.Code != http.StatusOK {
		t.Fatalf("cap status = %d, body %s", w.Code, w.Body.String())
	}
	capResp := decodeBody[ScheduleResponse](t, w)
	if capResp.Makespan < capResp.LowerBound {
		t.Fatalf("cap makespan %d below lower bound %d", capResp.Makespan, capResp.LowerBound)
	}

	w = post(t, s, "/v1/schedule", ScheduleRequest{
		Instance:  in,
		Algorithm: "online",
		Arrivals:  []ArrivalBatch{{T: 2, Proc: 1, Count: 5}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("online status = %d, body %s", w.Code, w.Body.String())
	}
	onResp := decodeBody[ScheduleResponse](t, w)
	if onResp.Makespan < 1 || onResp.MaxFlowTime < 1 {
		t.Fatalf("online makespan %d / maxFlowTime %d", onResp.Makespan, onResp.MaxFlowTime)
	}
}

// TestScheduleDistributed: the retired options.distributed field is
// ignored like any unknown field. The goroutine runtime computes the same
// schedule as the pool engine (pinned by the root package's tests and
// the chaos cross-check), so the answer is the pool body, byte for byte,
// from the same cache entry.
func TestScheduleDistributed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{6, 0, 0, 2})
	plain := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "B2"})
	if plain.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", plain.Code, plain.Body.String())
	}
	raw := fmt.Sprintf(`{"instance":%s,"algorithm":"B2","options":{"distributed":true}}`, mustJSON(t, in))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(raw)))
	if w.Code != http.StatusOK || w.Header().Get("X-Ringserve-Cache") != "hit" {
		t.Fatalf("distributed request: status %d, cache %q, body %s", w.Code, w.Header().Get("X-Ringserve-Cache"), w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatalf("distributed body %s differs from the pool body %s", w.Body, plain.Body)
	}
}

// TestCacheDihedralByteIdentity is the tentpole's core claim: every
// rotation and reflection of one instance yields the same fingerprint,
// the same cache entry, and a byte-identical response body.
func TestCacheDihedralByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{12, 0, 5, 0, 0, 2, 0, 0, 0, 1})

	ref := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "C2"})
	if ref.Code != http.StatusOK {
		t.Fatalf("reference status = %d, body %s", ref.Code, ref.Body.String())
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		copyIn := in.Rotate(rng.Intn(in.M))
		if trial%2 == 1 {
			copyIn = copyIn.Reflect()
		}
		w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: copyIn, Algorithm: "C2"})
		if w.Code != http.StatusOK {
			t.Fatalf("trial %d status = %d, body %s", trial, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Ringserve-Cache"); got != "hit" {
			t.Fatalf("trial %d cache header = %q, want hit (canonicalization failed to unify)", trial, got)
		}
		if !bytes.Equal(ref.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("trial %d body differs across dihedral copies:\n%s\n%s", trial, ref.Body, w.Body)
		}
	}
}

func TestOptimalEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{12, 0, 0, 0})

	w := post(t, s, "/v1/optimal", OptimalRequest{Instance: in})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	resp := decodeBody[OptimalResponse](t, w)
	// The single-pile closed form: ceil solves n jobs on m=4 ring.
	if !resp.Exact {
		t.Fatalf("expected exact result, got method %q", resp.Method)
	}
	if resp.Length < 3 {
		t.Fatalf("length = %d, implausibly small", resp.Length)
	}

	// Capacitated optimum for the same instance is no smaller.
	w = post(t, s, "/v1/optimal", OptimalRequest{Instance: in, Capacitated: true})
	capResp := decodeBody[OptimalResponse](t, w)
	if capResp.Length < resp.Length {
		t.Fatalf("capacitated optimum %d < uncapacitated %d", capResp.Length, resp.Length)
	}
}

func TestOptimalRequireExactLimit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{40, 3, 17, 0, 9, 0, 0, 25, 1, 6, 0, 11})

	// MaxArcs: 1 forces the lower-bound fallback; requireExact turns
	// that into 422 limit_exceeded.
	w := post(t, s, "/v1/optimal", OptimalRequest{
		Instance:     in,
		Limits:       OptimalLimits{MaxArcs: 1},
		RequireExact: true,
	})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", w.Code, w.Body.String())
	}
	env := decodeBody[apiError](t, w)
	if env.Error.Code != "limit_exceeded" {
		t.Fatalf("code = %q, want limit_exceeded", env.Error.Code)
	}

	// Without requireExact the same request answers 200 exact=false.
	w = post(t, s, "/v1/optimal", OptimalRequest{Instance: in, Limits: OptimalLimits{MaxArcs: 1}})
	if w.Code != http.StatusOK {
		t.Fatalf("fallback status = %d, body %s", w.Code, w.Body.String())
	}
	if resp := decodeBody[OptimalResponse](t, w); resp.Exact {
		t.Fatalf("expected inexact fallback under MaxArcs=1")
	}
}

func TestCompareEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{16, 0, 0, 2, 0, 0, 0, 0})

	w := post(t, s, "/v1/compare", CompareRequest{Instance: in, Algorithms: []string{"A1", "C2"}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	resp := decodeBody[CompareResponse](t, w)
	if len(resp.Runs) != 2 {
		t.Fatalf("runs = %v", resp.Runs)
	}
	for name, run := range resp.Runs {
		if run.Factor < 1.0 {
			t.Fatalf("%s beat the optimum: factor %.3f", name, run.Factor)
		}
	}
	if _, ok := resp.Runs[resp.Best]; !ok {
		t.Fatalf("best %q not among runs", resp.Best)
	}

	// Same comparison via a reflected copy: cache hit, identical bytes.
	w2 := post(t, s, "/v1/compare", CompareRequest{Instance: in.Reflect(), Algorithms: []string{"A1", "C2"}})
	if got := w2.Header().Get("X-Ringserve-Cache"); got != "hit" {
		t.Fatalf("reflected compare cache header = %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("compare bodies differ across reflection")
	}
}

func TestErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxM: 8})

	cases := []struct {
		name     string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"malformed json", "/v1/schedule", `{"instance":`, http.StatusBadRequest, "invalid_request"},
		{"bad algorithm", "/v1/schedule", `{"instance":{"kind":"unit","m":2,"unit":[1,0]},"algorithm":"Z9"}`, http.StatusBadRequest, "invalid_request"},
		{"invalid instance", "/v1/schedule", `{"instance":{"kind":"unit","m":3,"unit":[1]},"algorithm":"A1"}`, http.StatusBadRequest, "invalid_instance"},
		{"over cap", "/v1/schedule", `{"instance":{"kind":"unit","m":9,"unit":[1,0,0,0,0,0,0,0,0]},"algorithm":"A1"}`, http.StatusUnprocessableEntity, "limit_exceeded"},
		{"sized optimal", "/v1/optimal", `{"instance":{"kind":"sized","m":2,"sized":[[3],[1]]}}`, http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantCode, w.Body.String())
			}
			env := decodeBody[apiError](t, w)
			if env.Error.Code != tc.wantErr {
				t.Fatalf("code = %q, want %q (message %q)", env.Error.Code, tc.wantErr, env.Error.Message)
			}
		})
	}

	// GET on a POST endpoint.
	req := httptest.NewRequest(http.MethodGet, "/v1/schedule", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("GET status = %d", w.Code)
	}
}

func TestErrorCodeSentinels(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("x: %w", instance.ErrInvalid), http.StatusBadRequest, "invalid_instance"},
		{fmt.Errorf("x: %w", opt.ErrLimitExceeded), http.StatusUnprocessableEntity, "limit_exceeded"},
		{fmt.Errorf("x: %w", sim.ErrNotQuiescent), http.StatusUnprocessableEntity, "step_limit"},
		{fmt.Errorf("x: %w", sim.ErrCanceled), http.StatusGatewayTimeout, "canceled"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "canceled"},
		{errQueueFull, http.StatusTooManyRequests, "queue_full"},
		{errors.New("boom"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, code := errorCode(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("errorCode(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
		}
	}
}

func TestHealthzAndStatusz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	in := unitInstance(t, []int64{3, 0})
	post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"})
	post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"})

	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/statusz", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	st := decodeBody[statuszResponse](t, w)
	if st.Workers != 1 || st.QueueDepth != 4 {
		t.Fatalf("statusz shape: %+v", st)
	}
	if st.CacheEntries < 1 {
		t.Fatalf("statusz cacheEntries = %d after a cached request", st.CacheEntries)
	}
	if st.Counters["requests"] < 2 {
		t.Fatalf("statusz requests = %d", st.Counters["requests"])
	}
}

// TestQueueFull floods a one-worker, depth-one pool whose single worker
// is parked, and requires a 429 with Retry-After.
func TestQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Park the worker and fill the queue directly — deterministic,
	// no timing dependence on handler goroutines.
	block := make(chan struct{})
	if !s.pool.trySubmit(func(time.Time, time.Duration) { <-block }) {
		t.Fatal("could not park the worker")
	}
	for !s.pool.trySubmit(func(time.Time, time.Duration) {}) {
		// The worker may have grabbed the parker before the filler
		// arrived; with it parked, one more submit must stick.
		time.Sleep(time.Millisecond)
	}

	in := unitInstance(t, []int64{3, 0})
	w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	env := decodeBody[apiError](t, w)
	if env.Error.Code != "queue_full" {
		t.Fatalf("code = %q", env.Error.Code)
	}
	close(block)
}

// TestRequestTimeout pins a tiny deadline on a request whose compute
// blocks, and requires 504 canceled.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 20 * time.Millisecond})
	// A big instance with a tiny per-request timeout: the step-boundary
	// context checks abort the run.
	in := unitInstance(t, make([]int64, 4096))
	in.Unit[0] = 1 << 20
	w := post(t, s, "/v1/schedule", ScheduleRequest{
		Instance:  in,
		Algorithm: "A1",
		Options:   RequestOptions{TimeoutMs: 5},
	})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body.String())
	}
	if env := decodeBody[apiError](t, w); env.Error.Code != "canceled" {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

// TestPanicIsolation injects a panicking task straight into the pool
// and checks the worker survives to serve a real request.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	done := make(chan error, 1)
	if !s.pool.trySubmit(func(time.Time, time.Duration) { done <- guard(s.stats, func() error { panic("kaboom") }) }) {
		t.Fatal("submit failed")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("guard returned %v", err)
	}
	in := unitInstance(t, []int64{3, 0})
	if w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"}); w.Code != http.StatusOK {
		t.Fatalf("worker did not survive the panic: %d %s", w.Code, w.Body.String())
	}
}

// TestConcurrentMixedLoad hammers the pool with racing mixed requests;
// run under -race this is the data-race canary for cache + pool + stats.
func TestConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64, CacheEntries: 64, CacheShards: 4})
	ins := []instance.Instance{
		unitInstance(t, []int64{9, 0, 0, 1}),
		unitInstance(t, []int64{4, 4, 0, 0, 0, 2}),
		unitInstance(t, []int64{20, 0, 0, 0, 0, 0, 0, 3}),
	}
	algs := []string{"A1", "B1", "C1", "A2", "B2", "C2"}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 30; i++ {
				in := ins[rng.Intn(len(ins))].Rotate(rng.Intn(4))
				var w *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					w = post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: algs[rng.Intn(len(algs))]})
				case 1:
					w = post(t, s, "/v1/optimal", OptimalRequest{Instance: in})
				default:
					w = post(t, s, "/v1/compare", CompareRequest{Instance: in, Algorithms: []string{"A1", "B2"}})
				}
				if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
					t.Errorf("worker %d req %d: status %d body %s", id, i, w.Code, w.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestServeDrainNoGoroutineLeak starts the daemon on a loopback
// listener, serves traffic, cancels mid-stream, and requires the
// goroutine count to return to baseline: graceful drain, no leaks.
func TestServeDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 2, QueueDepth: 8})
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	in := unitInstance(t, []int64{9, 0, 0, 1})
	body, _ := json.Marshal(ScheduleRequest{Instance: in, Algorithm: "A1"})
	for i := 0; i < 4; i++ {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain within 10s")
	}

	// Allow the runtime a beat to retire handler goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: before %d, after %d — drain leaked", before, runtime.NumGoroutine())
}

// TestSelfTestShortMix runs the embedded load generator end to end —
// the same path the CI smoke job exercises — and requires it to pass
// its own hit-rate and byte-identity assertions.
func TestSelfTestShortMix(t *testing.T) {
	if testing.Short() {
		t.Skip("selftest load run skipped in -short")
	}
	var out bytes.Buffer
	err := SelfTest(Config{Workers: 4, QueueDepth: 64}, SelfTestOptions{Requests: 200, Clients: 4, Seed: 1}, &out)
	if err != nil {
		t.Fatalf("selftest: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "hit-rate") || !strings.Contains(out.String(), "drain       clean") {
		t.Fatalf("selftest output missing sections:\n%s", out.String())
	}
}
