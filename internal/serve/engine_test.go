package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ringsched/internal/engine"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/workload"
)

// denseUnit builds a unit instance with every processor loaded — the
// shape huge-instance requests take, and one that quiesces in few steps
// so big-m tests stay fast.
func denseUnit(t *testing.T, m int, per int64) ScheduleRequest {
	t.Helper()
	works := make([]int64, m)
	for i := range works {
		works[i] = per
	}
	return ScheduleRequest{Instance: unitInstance(t, works), Algorithm: "C1"}
}

// TestScheduleEngineRouting covers the resolver: auto-routing by ring
// size against BigRingThreshold, explicit pool/bigring selection, and
// the bit-identity of the two engines' schedule numbers.
func TestScheduleEngineRouting(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, BigRingThreshold: 64})

	small := denseUnit(t, 8, 3)
	w := post(t, s, "/v1/schedule", small)
	if w.Code != http.StatusOK {
		t.Fatalf("small: status %d, body %s", w.Code, w.Body.String())
	}
	poolResp := decodeBody[ScheduleResponse](t, w)
	if poolResp.Engine != "pool" {
		t.Fatalf("small auto engine = %q, want pool", poolResp.Engine)
	}

	huge := denseUnit(t, 64, 3)
	w = post(t, s, "/v1/schedule", huge)
	if w.Code != http.StatusOK {
		t.Fatalf("huge: status %d, body %s", w.Code, w.Body.String())
	}
	bigResp := decodeBody[ScheduleResponse](t, w)
	if bigResp.Engine != "bigring" {
		t.Fatalf("huge auto engine = %q, want bigring (threshold 64)", bigResp.Engine)
	}

	// The same small ring under an explicit bigring request: identical
	// schedule numbers, different engine stamp, distinct cache entry.
	small.Options.Engine = "bigring"
	w = post(t, s, "/v1/schedule", small)
	if w.Code != http.StatusOK {
		t.Fatalf("explicit bigring: status %d, body %s", w.Code, w.Body.String())
	}
	expResp := decodeBody[ScheduleResponse](t, w)
	if expResp.Engine != "bigring" {
		t.Fatalf("explicit engine = %q, want bigring", expResp.Engine)
	}
	if expResp.Makespan != poolResp.Makespan || expResp.Steps != poolResp.Steps ||
		expResp.JobHops != poolResp.JobHops || expResp.Messages != poolResp.Messages {
		t.Fatalf("engines disagree: pool %+v vs bigring %+v", poolResp, expResp)
	}

	if c := s.EngineComputes(); c["bigring"] != 2 || c["pool"] != 1 || s.Stats()["computes"] != 3 {
		t.Fatalf("computes by engine %v (total %d), want bigring 2 (auto huge + explicit small), pool 1", c, s.Stats()["computes"])
	}
	st := decodeBody[statuszResponse](t, get(t, s, "/v1/statusz"))
	if lat := st.Latency["schedule"]; lat.Engine["bigring"].Count != 2 || lat.Engine["pool"].Count != 1 {
		t.Fatalf("engine histogram counts = pool %d / bigring %d, want 1 / 2",
			lat.Engine["pool"].Count, lat.Engine["bigring"].Count)
	}
}

// TestScheduleEngineRejections pins the 400s: an engine outside its
// domain and unknown engine names.
func TestScheduleEngineRejections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	unit := unitInstance(t, []int64{4, 0, 0, 0})
	for _, tc := range []struct {
		name string
		req  ScheduleRequest
	}{
		{"sized-bigring", ScheduleRequest{
			Instance:  instance.NewSized([][]int64{{2, 3}, nil, nil, {1}}),
			Algorithm: "C1",
			Options:   RequestOptions{Engine: "bigring"},
		}},
		{"cap-algorithm", ScheduleRequest{Instance: unit, Algorithm: "cap", Options: RequestOptions{Engine: "bigring"}}},
		{"online-arrivals", ScheduleRequest{
			Instance:  unit,
			Algorithm: "online",
			Options:   RequestOptions{Engine: "bigring"},
			Arrivals:  []ArrivalBatch{{T: 2, Proc: 1, Count: 3}},
		}},
		// One-shot online resolves to the online engine, so pinning the
		// pool engine on it is outside the pool's domain.
		{"online-pool", ScheduleRequest{Instance: unit, Algorithm: "online", Options: RequestOptions{Engine: "pool"}}},
		{"unknown-engine", ScheduleRequest{Instance: unit, Algorithm: "C1", Options: RequestOptions{Engine: "warp"}}},
	} {
		w := post(t, s, "/v1/schedule", tc.req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
	}
}

// TestScheduleEngineSpanLog asserts the smoke-test contract CI greps
// for: a bigring-routed request writes an "engine=bigring" span to the
// access log, and a pool request writes "engine=pool".
func TestScheduleEngineSpanLog(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, BigRingThreshold: 64, AccessLog: &log})

	post(t, s, "/v1/schedule", denseUnit(t, 64, 2))
	post(t, s, "/v1/schedule", denseUnit(t, 8, 2))

	got := log.String()
	if !strings.Contains(got, `"engine=bigring"`) {
		t.Errorf("access log missing engine=bigring span:\n%s", got)
	}
	if !strings.Contains(got, `"engine=pool"`) {
		t.Errorf("access log missing engine=pool span:\n%s", got)
	}
}

// TestScheduleEngineCacheSplit: the resolved engine is part of the
// cache identity, so a pool body (engine:"pool") is never replayed for
// a bigring request of the same instance — and repeating one request is
// still a hit.
func TestScheduleEngineCacheSplit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	req := denseUnit(t, 16, 2)
	req.Options.Engine = "pool"
	if w := post(t, s, "/v1/schedule", req); w.Header().Get("X-Ringserve-Cache") != "miss" {
		t.Fatalf("first pool call: cache %q, want miss", w.Header().Get("X-Ringserve-Cache"))
	}
	req.Options.Engine = "bigring"
	w := post(t, s, "/v1/schedule", req)
	if v := w.Header().Get("X-Ringserve-Cache"); v != "miss" {
		t.Fatalf("first bigring call: cache %q, want miss (engine must split the key)", v)
	}
	if resp := decodeBody[ScheduleResponse](t, w); resp.Engine != "bigring" {
		t.Fatalf("engine = %q, want bigring", resp.Engine)
	}
	if w := post(t, s, "/v1/schedule", req); w.Header().Get("X-Ringserve-Cache") != "hit" {
		t.Fatalf("repeat bigring call: cache %q, want hit", w.Header().Get("X-Ringserve-Cache"))
	}
}

// TestScheduleLowerBoundBySize: the lower bound does not depend on the
// engine. One small instance gets the same exact bound, 8, (and so the
// same body, engine stamp aside) from both static engines. The best
// window here has length 3, so windows of power-of-two lengths alone
// certify only 7.
func TestScheduleLowerBoundBySize(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{0, 0, 0, 0, 0, 0, 0, 29, 4, 34, 0})
	bodies := map[string]ScheduleResponse{}
	for _, eng := range []string{"pool", "bigring"} {
		w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "C1", Options: RequestOptions{Engine: eng}})
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", eng, w.Code, w.Body.String())
		}
		resp := decodeBody[ScheduleResponse](t, w)
		if resp.Engine != eng || resp.LowerBound != 8 {
			t.Fatalf("%s: engine %q, lower bound %d, want 8", eng, resp.Engine, resp.LowerBound)
		}
		resp.Engine = ""
		bodies[eng] = resp
	}
	if bodies["pool"] != bodies["bigring"] {
		t.Fatalf("engines disagree: pool %+v vs bigring %+v", bodies["pool"], bodies["bigring"])
	}
}

// hugePileRing is a ring of 2^15 processors with x jobs on each of
// processors 100-102: past the ring sizes an O(m²) window scan can serve
// (tens of seconds, whatever x is), with little work for the engines.
func hugePileRing(t *testing.T, x int64) instance.Instance {
	works := make([]int64, 1<<15)
	works[100], works[101], works[102] = x, x, x
	return unitInstance(t, works)
}

// TestScheduleHugePoolRingBound: a huge ring that auto routing leaves on
// the pool engine carries the exact Lemma 1 bound, 17 from the
// three-processor window, and answers well within its timeout.
func TestScheduleHugePoolRingBound(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: hugePileRing(t, 100), Algorithm: "C1", Options: RequestOptions{TimeoutMs: 10_000}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ScheduleResponse](t, w)
	if resp.Engine != "pool" || resp.LowerBound != 17 {
		t.Fatalf("engine %q, lower bound %d, want pool and 17", resp.Engine, resp.LowerBound)
	}
}

// TestScheduleHugeCapRingBound: the Lemma 10 bound is exact and cheap at
// the same size, so a cap request answers 200 within its timeout with
// the bound lb.Capacitated certifies (6, from the three-processor
// window). The pile is small because the capacitated run steps every
// processor each step; 10 jobs a processor finish in 10 steps.
func TestScheduleHugeCapRingBound(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	in := hugePileRing(t, 10)
	w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "cap", Options: RequestOptions{TimeoutMs: 5000}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ScheduleResponse](t, w)
	if want := lb.Capacitated(in); resp.LowerBound != want || want != 6 {
		t.Fatalf("lower bound %d, lb.Capacitated %d, want both 6", resp.LowerBound, want)
	}
}

// TestEngineRegistryDrift finds every registry engine on every surface
// that reports engines: the /v1/algorithms catalog, both engine-labeled
// /metrics families (for every instrumented endpoint) and /v1/statusz.
func TestEngineRegistryDrift(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	catalog := decodeBody[AlgorithmsResponse](t, get(t, s, "/v1/algorithms"))
	var status statuszResponse
	if err := json.Unmarshal(get(t, s, "/v1/statusz").Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	prom := get(t, s, "/metrics").Body.String()
	listed := map[string]bool{}
	for _, e := range catalog.Engines {
		listed[e.Name] = true
	}
	if len(catalog.Engines) != len(engine.All) {
		t.Errorf("catalog lists %d engines, registry has %d", len(catalog.Engines), len(engine.All))
	}
	for i := range engine.All {
		name := engine.All[i].Name
		if !listed[name] {
			t.Errorf("engine %s missing from /v1/algorithms", name)
		}
		if !strings.Contains(prom, fmt.Sprintf("ringserve_computes_total{engine=%q} ", name)) {
			t.Errorf("engine %s missing from ringserve_computes_total", name)
		}
		if _, ok := status.EngineComputes[name]; !ok {
			t.Errorf("engine %s missing from statusz engineComputes", name)
		}
		for _, ep := range latEndpoints {
			if !strings.Contains(prom, fmt.Sprintf("ringserve_engine_seconds_count{endpoint=%q,engine=%q} ", ep, name)) {
				t.Errorf("engine %s missing from ringserve_engine_seconds on %s", name, ep)
			}
			if _, ok := status.Latency[ep].Engine[name]; !ok {
				t.Errorf("engine %s missing from statusz latency of %s", name, ep)
			}
		}
	}
	for _, a := range catalog.Algorithms {
		if len(a.Engines) == 0 {
			t.Errorf("algorithm %s lists no engine", a.Name)
		}
	}
}

// TestOnlineScheduleStopsWithItsRequest pins that a one-shot online run
// steps under its request's context (see requireStopsWithItsRequest).
func TestOnlineScheduleStopsWithItsRequest(t *testing.T) {
	works := make([]int64, 20_000)
	works[0] = 5_000_000
	requireStopsWithItsRequest(t, ScheduleRequest{
		Instance:  unitInstance(t, works),
		Algorithm: "online",
		Arrivals:  []ArrivalBatch{{T: 1, Proc: 1, Count: 1}},
	}, "online", 100*time.Millisecond)
}

// TestBigRingScheduleStopsWithItsRequest pins the same for the big-ring
// engine, which checks its request's context before every step. Dense
// B2 at m = 10^5 keeps thousands of buckets circling for about m steps,
// seconds of work; a point load would finish within the deadline now
// that a step costs only its live buckets.
func TestBigRingScheduleStopsWithItsRequest(t *testing.T) {
	requireStopsWithItsRequest(t, ScheduleRequest{
		Instance:  workload.Uniform(100_000, 100, 7),
		Algorithm: "B2",
		Options:   RequestOptions{Engine: "bigring"},
	}, "bigring", 200*time.Millisecond)
}

// requireStopsWithItsRequest posts req with a 50 ms deadline to a
// one-worker server. The run outlives the deadline by far, so the
// request must answer 504, free its worker within bound of the 504 (an
// uncancelable run of this size holds it for seconds), and not be
// counted as a compute of engine eng.
func requireStopsWithItsRequest(t *testing.T, req ScheduleRequest, eng string, bound time.Duration) {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1})
	req.Options.TimeoutMs = 50
	w := post(t, s, "/v1/schedule", req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	deadline := time.Now().Add(bound)
	for s.pool.busyWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still busy %v after the 504: the %s run ignored its request's context", bound, eng)
		}
		time.Sleep(time.Millisecond)
	}
	if n := s.EngineComputes()[eng]; n != 0 {
		t.Fatalf("%s computes = %d after a canceled run, want 0", eng, n)
	}
}
