package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ringsched/internal/metrics"
	"ringsched/internal/online"
)

// do issues a bodyless request (GET/DELETE) against the handler.
func do(t *testing.T, s *Server, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// createSession opens a session on a ring of m and returns its id.
func createSession(t *testing.T, s *Server, req SessionCreateRequest) SessionCreateResponse {
	t.Helper()
	w := post(t, s, "/v1/session", req)
	if w.Code != http.StatusOK {
		t.Fatalf("create session: status %d, body %s", w.Code, w.Body.String())
	}
	return decodeBody[SessionCreateResponse](t, w)
}

// appendWave posts one arrivals call and decodes the response.
func appendWave(t *testing.T, s *Server, id string, req SessionArrivalsRequest) SessionArrivalsResponse {
	t.Helper()
	w := post(t, s, "/v1/session/"+id+"/arrivals", req)
	if w.Code != http.StatusOK {
		t.Fatalf("append arrivals: status %d, body %s", w.Code, w.Body.String())
	}
	return decodeBody[SessionArrivalsResponse](t, w)
}

func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	created := createSession(t, s, SessionCreateRequest{M: 6})
	if created.Engine != "online" || created.M != 6 || created.ID == "" {
		t.Fatalf("create response %+v", created)
	}

	waves := [][]ArrivalBatch{
		{{T: 0, Proc: 0, Count: 5}, {T: 0, Proc: 2, Count: 3}},
		{{T: 100, Proc: 4, Count: 7}},
		{{T: 200, Proc: 1, Count: 2}, {T: 205, Proc: 5, Count: 4}},
	}
	var all []online.Batch
	prevSpan := int64(0)
	for wi, wave := range waves {
		resp := appendWave(t, s, created.ID, SessionArrivalsRequest{Arrivals: wave})
		if !resp.Quiescent {
			t.Fatalf("wave %d: not quiescent: %+v", wi, resp.SessionSnapshot)
		}
		if resp.Accepted != len(wave) {
			t.Fatalf("wave %d: accepted %d, want %d", wi, resp.Accepted, len(wave))
		}
		if resp.Makespan < prevSpan {
			t.Fatalf("wave %d: makespan regressed %d -> %d", wi, prevSpan, resp.Makespan)
		}
		prevSpan = resp.Makespan
		var want, got int64
		for _, a := range wave {
			want += a.Count
			all = append(all, online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count})
		}
		for _, d := range resp.DeltaProcessed {
			got += d
		}
		if got != want {
			t.Fatalf("wave %d: deltaProcessed sums to %d, want %d", wi, got, want)
		}
		if resp.LowerBound < 1 || resp.Makespan < resp.LowerBound {
			t.Fatalf("wave %d: makespan %d vs lower bound %d", wi, resp.Makespan, resp.LowerBound)
		}
	}

	// The snapshot endpoint reports the same state without stepping.
	snapW := do(t, s, http.MethodGet, "/v1/session/"+created.ID)
	if snapW.Code != http.StatusOK {
		t.Fatalf("get session: status %d, body %s", snapW.Code, snapW.Body.String())
	}
	snap := decodeBody[SessionSnapshot](t, snapW)
	if snap.Makespan != prevSpan || snap.Appends != int64(len(waves)) || snap.Terminal {
		t.Fatalf("snapshot %+v, want makespan %d, appends %d", snap, prevSpan, len(waves))
	}

	// Incremental stepping must be bit-identical to the one-shot run on
	// the concatenated arrival sequence.
	oin, err := online.NewInstance(6, all)
	if err != nil {
		t.Fatalf("one-shot instance: %v", err)
	}
	oneShot, err := online.Run(oin, online.Params{})
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
	if snap.Makespan != oneShot.Makespan || snap.MaxFlowTime != oneShot.MaxFlowTime ||
		snap.Steps != oneShot.Steps || snap.JobHops != oneShot.JobHops {
		t.Fatalf("session result (span %d flow %d steps %d hops %d) != one-shot (%d %d %d %d)",
			snap.Makespan, snap.MaxFlowTime, snap.Steps, snap.JobHops,
			oneShot.Makespan, oneShot.MaxFlowTime, oneShot.Steps, oneShot.JobHops)
	}

	// DELETE returns the terminal snapshot and frees the slot.
	delW := do(t, s, http.MethodDelete, "/v1/session/"+created.ID)
	if delW.Code != http.StatusOK {
		t.Fatalf("delete session: status %d, body %s", delW.Code, delW.Body.String())
	}
	terminal := decodeBody[SessionSnapshot](t, delW)
	if !terminal.Terminal || !terminal.Quiescent || terminal.Makespan != oneShot.Makespan {
		t.Fatalf("terminal snapshot %+v", terminal)
	}
	if w := do(t, s, http.MethodGet, "/v1/session/"+created.ID); w.Code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", w.Code)
	}
	if got := s.Stats(); got["sessionsCreated"] != 1 || got["sessionAppends"] != int64(len(waves)) || s.EngineComputes()["online"] < int64(len(waves)) {
		t.Fatalf("session counters %v", got)
	}
}

func TestSessionInstanceSeed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{9, 0, 3, 0})
	created := createSession(t, s, SessionCreateRequest{Instance: &in})
	if created.M != 4 {
		t.Fatalf("seeded session m = %d, want 4", created.M)
	}
	// The seed is appended but not stepped; an empty append quiesces it.
	resp := appendWave(t, s, created.ID, SessionArrivalsRequest{})
	oin, _ := online.NewInstance(4, []online.Batch{{Time: 0, Proc: 0, Count: 9}, {Time: 0, Proc: 2, Count: 3}})
	oneShot, err := online.Run(oin, online.Params{})
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	if !resp.Quiescent || resp.Makespan != oneShot.Makespan {
		t.Fatalf("seeded session makespan %d (quiescent %t), one-shot %d", resp.Makespan, resp.Quiescent, oneShot.Makespan)
	}
}

func TestSessionStepToPause(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	created := createSession(t, s, SessionCreateRequest{M: 4})
	paused := appendWave(t, s, created.ID, SessionArrivalsRequest{
		Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 12}},
		StepTo:   2,
	})
	if paused.Quiescent || paused.Now > 2 {
		t.Fatalf("paused snapshot %+v, want paused at or before 2", paused.SessionSnapshot)
	}
	resumed := appendWave(t, s, created.ID, SessionArrivalsRequest{})
	if !resumed.Quiescent || resumed.Makespan < paused.Makespan {
		t.Fatalf("resume snapshot %+v after pause %+v", resumed.SessionSnapshot, paused.SessionSnapshot)
	}
}

func TestSessionNotFound(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, probe := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return do(t, s, http.MethodGet, "/v1/session/s-missing") },
		func() *httptest.ResponseRecorder { return do(t, s, http.MethodDelete, "/v1/session/s-missing") },
		func() *httptest.ResponseRecorder {
			return post(t, s, "/v1/session/s-missing/arrivals", SessionArrivalsRequest{})
		},
	} {
		w := probe()
		if w.Code != http.StatusNotFound {
			t.Fatalf("status %d, body %s", w.Code, w.Body.String())
		}
		if e := decodeBody[apiError](t, w); e.Error.Code != "session_not_found" {
			t.Fatalf("error code %q", e.Error.Code)
		}
	}
}

func TestSessionBusyConflict(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	created := createSession(t, s, SessionCreateRequest{M: 4})
	sess, ok := s.sessions.get(created.ID, time.Now())
	if !ok {
		t.Fatal("session vanished")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	w := post(t, s, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{
		Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 1}},
	})
	if w.Code != http.StatusConflict {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if e := decodeBody[apiError](t, w); e.Error.Code != "session_busy" {
		t.Fatalf("error code %q", e.Error.Code)
	}
}

func TestSessionStaleReleaseAndClamp(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	created := createSession(t, s, SessionCreateRequest{M: 4})
	first := appendWave(t, s, created.ID, SessionArrivalsRequest{
		Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 6}},
	})
	if first.Now == 0 {
		t.Fatal("engine time did not advance")
	}
	// A release behind the engine clock is a conflict...
	w := post(t, s, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{
		Arrivals: []ArrivalBatch{{T: 0, Proc: 1, Count: 2}},
	})
	if w.Code != http.StatusConflict {
		t.Fatalf("stale append: status %d, body %s", w.Code, w.Body.String())
	}
	if e := decodeBody[apiError](t, w); e.Error.Code != "stale_release" {
		t.Fatalf("error code %q", e.Error.Code)
	}
	// ...unless the client asks for clamping, which lifts it to now.
	clamped := appendWave(t, s, created.ID, SessionArrivalsRequest{
		Arrivals: []ArrivalBatch{{T: 0, Proc: 1, Count: 2}},
		Clamp:    true,
	})
	if clamped.Clamped != 1 || !clamped.Quiescent {
		t.Fatalf("clamped append %+v", clamped)
	}
	if clamped.TotalWork != 8 {
		t.Fatalf("total work %d, want 8", clamped.TotalWork)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SessionTTL: 10 * time.Millisecond})
	created := createSession(t, s, SessionCreateRequest{M: 3})
	time.Sleep(30 * time.Millisecond)
	if w := do(t, s, http.MethodGet, "/v1/session/"+created.ID); w.Code != http.StatusNotFound {
		t.Fatalf("expired session: status %d", w.Code)
	}
	if got := s.Stats()["sessionsEvicted"]; got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
}

func TestSessionTTLClampedToServerDefault(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SessionTTL: 50 * time.Millisecond})
	created := createSession(t, s, SessionCreateRequest{M: 3, TTLMs: 3600_000})
	if created.TTLMs != 50 {
		t.Fatalf("ttlMs %d, want clamped to 50", created.TTLMs)
	}
	shorter := createSession(t, s, SessionCreateRequest{M: 3, TTLMs: 10})
	if shorter.TTLMs != 10 {
		t.Fatalf("ttlMs %d, want 10", shorter.TTLMs)
	}
}

func TestSessionLimit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxSessions: 2})
	createSession(t, s, SessionCreateRequest{M: 3})
	second := createSession(t, s, SessionCreateRequest{M: 3})
	w := post(t, s, "/v1/session", SessionCreateRequest{M: 3})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third create: status %d, body %s", w.Code, w.Body.String())
	}
	if e := decodeBody[apiError](t, w); e.Error.Code != "session_limit" {
		t.Fatalf("error code %q", e.Error.Code)
	}
	// Deleting frees the slot.
	if w := do(t, s, http.MethodDelete, "/v1/session/"+second.ID); w.Code != http.StatusOK {
		t.Fatalf("delete: status %d", w.Code)
	}
	createSession(t, s, SessionCreateRequest{M: 3})
}

func TestSessionValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxTotalWork: 100})
	if w := post(t, s, "/v1/session", SessionCreateRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("m=0 create: status %d", w.Code)
	}
	created := createSession(t, s, SessionCreateRequest{M: 4})
	for _, bad := range []ArrivalBatch{
		{T: -1, Proc: 0, Count: 1},
		{T: 0, Proc: -1, Count: 1},
		{T: 0, Proc: 4, Count: 1},
		{T: 0, Proc: 0, Count: -1},
	} {
		w := post(t, s, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{Arrivals: []ArrivalBatch{bad}})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("bad arrival %+v: status %d", bad, w.Code)
		}
	}
	// Cumulative work over the cap is a 422, and the append is not applied.
	w := post(t, s, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{
		Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 101}},
	})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("over-cap append: status %d, body %s", w.Code, w.Body.String())
	}
	snap := decodeBody[SessionSnapshot](t, do(t, s, http.MethodGet, "/v1/session/"+created.ID))
	if snap.TotalWork != 0 {
		t.Fatalf("rejected append leaked work: %d", snap.TotalWork)
	}
}

// TestSessionConcurrentAppends hammers one session from many goroutines.
// Appends that lose the TryLock race surface as 409s; everything
// accepted must be conserved in the final snapshot.
func TestSessionConcurrentAppends(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	created := createSession(t, s, SessionCreateRequest{M: 8})
	const goroutines = 8
	const perG = 10
	var mu sync.Mutex
	var accepted int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w := post(t, s, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{
					Arrivals: []ArrivalBatch{{T: 0, Proc: (g + i) % 8, Count: 2}},
					Clamp:    true,
				})
				switch w.Code {
				case http.StatusOK:
					mu.Lock()
					accepted += 2
					mu.Unlock()
				case http.StatusConflict, http.StatusTooManyRequests:
					// Lost the lock race or queue admission: acceptable.
				default:
					t.Errorf("append status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	delW := do(t, s, http.MethodDelete, "/v1/session/"+created.ID)
	if delW.Code != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", delW.Code, delW.Body.String())
	}
	terminal := decodeBody[SessionSnapshot](t, delW)
	if !terminal.Quiescent || terminal.TotalWork != accepted {
		t.Fatalf("terminal work %d (quiescent %t), want %d", terminal.TotalWork, terminal.Quiescent, accepted)
	}
	var processed int64
	for _, p := range terminal.Processed {
		processed += p
	}
	if processed != accepted {
		t.Fatalf("processed %d, want %d", processed, accepted)
	}
}

// TestSessionChurnUnderEviction races creates, appends and deletes
// against an aggressive TTL; the invariant is simply no panic, no race
// and no 5xx.
func TestSessionChurnUnderEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxSessions: 16, SessionTTL: 5 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				w := post(t, s, "/v1/session", SessionCreateRequest{M: 4})
				if w.Code == http.StatusTooManyRequests {
					continue
				}
				if w.Code != http.StatusOK {
					t.Errorf("create status %d: %s", w.Code, w.Body.String())
					return
				}
				created := decodeBody[SessionCreateResponse](t, w)
				if i%3 == 0 {
					time.Sleep(7 * time.Millisecond) // let the TTL bite
				}
				aw := post(t, s, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{
					Arrivals: []ArrivalBatch{{T: 0, Proc: i % 4, Count: 1}},
					Clamp:    true,
				})
				if aw.Code >= 500 {
					t.Errorf("append status %d: %s", aw.Code, aw.Body.String())
					return
				}
				do(t, s, http.MethodDelete, "/v1/session/"+created.ID)
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionAccessLogSpans pins the span tree a session append and a
// delete log, the same one a one-shot miss logs: exactly one root
// compute span, engine under it and engine=online under engine.
func TestSessionAccessLogSpans(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, AccessLog: &log})
	created := createSession(t, s, SessionCreateRequest{M: 4})
	appendWave(t, s, created.ID, SessionArrivalsRequest{Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 5}}})
	if w := do(t, s, http.MethodDelete, "/v1/session/"+created.ID); w.Code != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", w.Code, w.Body.String())
	}
	var recs []metrics.SpanRecord
	for dec := json.NewDecoder(&log); dec.More(); {
		var rec metrics.SpanRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("access-log records = %d, want create, append and delete", len(recs))
	}
	for _, rec := range recs[1:] {
		computes := 0
		parent := map[string]string{}
		for _, sp := range rec.Spans {
			if sp.Name == "compute" {
				computes++
			}
			parent[sp.Name] = sp.Parent
		}
		if computes != 1 || parent["compute"] != "" || parent["engine"] != "compute" || parent["engine=online"] != "engine" {
			t.Errorf("session record spans = %+v, want one root compute > engine > engine=online", rec.Spans)
		}
	}
}

// TestSessionDrainFlush checks graceful drain steps surviving sessions
// to quiescence and hands their terminal snapshots to the flush hook.
func TestSessionDrainFlush(t *testing.T) {
	var mu sync.Mutex
	var flushed []SessionSnapshot
	s := New(Config{Workers: 2, SessionFlush: func(snap SessionSnapshot) {
		mu.Lock()
		flushed = append(flushed, snap)
		mu.Unlock()
	}})
	in := unitInstance(t, []int64{5, 0, 0, 2})
	created := createSession(t, s, SessionCreateRequest{Instance: &in}) // seeded, never stepped
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 1 {
		t.Fatalf("flushed %d sessions, want 1", len(flushed))
	}
	snap := flushed[0]
	if snap.ID != created.ID || !snap.Terminal || !snap.Quiescent || snap.TotalWork != 7 {
		t.Fatalf("flushed snapshot %+v", snap)
	}
	// Drained registry refuses new sessions.
	if w := post(t, s, "/v1/session", SessionCreateRequest{M: 3}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("create after drain: status %d", w.Code)
	}
}

func TestScheduleMigrationBudget(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{40, 0, 0, 0, 0, 0, 0, 0})
	unlimited := decodeBody[ScheduleResponse](t, post(t, s, "/v1/schedule", ScheduleRequest{
		Instance: in, Algorithm: "online",
	}))
	capped := decodeBody[ScheduleResponse](t, post(t, s, "/v1/schedule", ScheduleRequest{
		Instance: in, Algorithm: "online",
		Options: RequestOptions{MigrationBudget: 2},
	}))
	if capped.Migrated > 2 {
		t.Fatalf("budgeted run migrated %d jobs, budget 2", capped.Migrated)
	}
	if unlimited.Migrated <= capped.Migrated {
		t.Fatalf("unlimited migrated %d, capped %d: budget had no effect", unlimited.Migrated, capped.Migrated)
	}
	if capped.Makespan < unlimited.Makespan {
		t.Fatalf("capped migration improved makespan %d < %d", capped.Makespan, unlimited.Makespan)
	}
}

func TestCompareLegacyTimeoutWire(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	in := unitInstance(t, []int64{6, 0, 2, 0})
	// The historical top-level timeoutMs and the shared Options block
	// must both decode; either way the call succeeds.
	for _, raw := range []string{
		fmt.Sprintf(`{"instance":%s,"timeoutMs":5000}`, mustJSON(t, in)),
		fmt.Sprintf(`{"instance":%s,"options":{"timeoutMs":5000}}`, mustJSON(t, in)),
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", bytes.NewReader([]byte(raw)))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("compare with %s: status %d, body %s", raw, w.Code, w.Body.String())
		}
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, BigRingThreshold: 50_000})
	w := do(t, s, http.MethodGet, "/v1/algorithms")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	resp := decodeBody[AlgorithmsResponse](t, w)
	byName := make(map[string]AlgorithmInfo, len(resp.Algorithms))
	for _, a := range resp.Algorithms {
		byName[a.Name] = a
	}
	for _, name := range []string{"A1", "B1", "C1", "A2", "B2", "C2"} {
		a, ok := byName[name]
		if !ok || a.Kind != "bucket" || !a.Compare || strings.Join(a.Engines, ",") != "bigring,pool" {
			t.Fatalf("algorithm %s: %+v", name, a)
		}
	}
	if a := byName["cap"]; !a.Unit || strings.Join(a.Engines, ",") != "pool" {
		t.Fatalf("cap entry %+v", a)
	}
	if a := byName["online"]; !a.Sessions || a.Kind != "online" || strings.Join(a.Engines, ",") != "online" {
		t.Fatalf("online entry %+v", a)
	}
	engines := make(map[string]EngineInfo, len(resp.Engines))
	for _, e := range resp.Engines {
		engines[e.Name] = e
	}
	// The goroutine runtime is not a serving engine: no catalog entry.
	if _, ok := engines["dist"]; ok || len(engines) != 3 {
		t.Fatalf("engines %v, want exactly bigring, online and pool", resp.Engines)
	}
	if engines["bigring"].AutoThreshold != 50_000 {
		t.Fatalf("bigring threshold %d", engines["bigring"].AutoThreshold)
	}
	if len(engines["online"].Endpoints) == 0 || engines["online"].Endpoints[0] != "/v1/session" {
		t.Fatalf("online engine endpoints %v", engines["online"].Endpoints)
	}
	if w := post(t, s, "/v1/algorithms", struct{}{}); w.Code != http.StatusBadRequest {
		t.Fatalf("POST /v1/algorithms: status %d", w.Code)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}
