package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// statuszCounterKeys is the "counters" key set of /v1/statusz, and
// counterFamilies maps each /metrics counter
// family onto its key. Both are literal so that renaming a key or a
// family fails here.
var (
	statuszCounterKeys = []string{
		"badRequests", "cacheHits", "cacheMisses", "canceled", "coalesced",
		"computes", "evictions", "panics", "peerServed", "rejected",
		"requests", "sessionAppends", "sessionsCreated", "sessionsEvicted",
	}
	counterFamilies = map[string]string{
		"ringserve_requests_total":         "requests",
		"ringserve_bad_requests_total":     "badRequests",
		"ringserve_rejected_total":         "rejected",
		"ringserve_canceled_total":         "canceled",
		"ringserve_panics_total":           "panics",
		"ringserve_cache_hits_total":       "cacheHits",
		"ringserve_cache_misses_total":     "cacheMisses",
		"ringserve_cache_evictions_total":  "evictions",
		"ringserve_computes_total":         "computes",
		"ringserve_coalesced_total":        "coalesced",
		"ringserve_peer_served_total":      "peerServed",
		"ringserve_sessions_created_total": "sessionsCreated",
		"ringserve_sessions_evicted_total": "sessionsEvicted",
		"ringserve_session_appends_total":  "sessionAppends",
	}
)

// counterSums reads a text exposition and returns every counter
// family's samples summed, plus each counter sample by series.
func counterSums(t *testing.T, text string) (families map[string]int64, series map[string]int64) {
	t.Helper()
	families, series = map[string]int64{}, map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok && strings.HasSuffix(f, " counter") {
			families[strings.TrimSuffix(f, " counter")] = 0
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(key, "{")
		if _, ok := families[name]; !ok {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("counter sample %q: %v", line, err)
		}
		families[name] += v
		series[key] = v
	}
	return families, series
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCountersAgreeAcrossSurfaces drives one server through a mixed
// workload — a miss, a hit, a coalesced burst, evictions, a 400, a peer
// forward, a solver run, a session create, an append and a TTL
// eviction, and a bigring pin — then requires every counter family on
// /metrics, its samples summed, to equal the same key in /v1/statusz
// "counters", and "computes" to equal the sum of "engineComputes".
func TestCountersAgreeAcrossSurfaces(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 64, CacheEntries: 4, CacheShards: 1})
	ok := func(w *httptest.ResponseRecorder) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", w.Code, w.Body.String())
		}
	}
	in := unitInstance(t, []int64{7, 0, 3, 0, 1})
	ok(post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "A1"}))           // miss
	ok(post(t, s, "/v1/schedule", ScheduleRequest{Instance: in.Rotate(2), Algorithm: "A1"})) // hit

	burst := unitInstance(t, []int64{9, 1, 4, 0, 7, 2, 5, 3})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, s, "/v1/schedule", ScheduleRequest{Instance: burst.Rotate(i % burst.M), Algorithm: "C1"})
		}(i)
	}
	wg.Wait()

	for _, alg := range []string{"B1", "C2", "A2"} { // past the 4-entry cache
		ok(post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: alg}))
	}
	if w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "Z9"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d", w.Code)
	}
	ok(post(t, s, "/v1/optimal", OptimalRequest{Instance: in}))
	pin := ScheduleRequest{Instance: in, Algorithm: "C1", Options: RequestOptions{Engine: "bigring"}}
	ok(post(t, s, "/v1/schedule", pin))

	fwd := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		strings.NewReader(`{"instance":{"kind":"unit","m":3,"unit":[4,0,1]},"algorithm":"B2"}`))
	fwd.Header.Set(PeerForwardHeader, "test-origin")
	fw := httptest.NewRecorder()
	s.Handler().ServeHTTP(fw, fwd)
	ok(fw)

	created := createSession(t, s, SessionCreateRequest{M: 4})
	appendWave(t, s, created.ID, SessionArrivalsRequest{Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 5}}})
	brief := createSession(t, s, SessionCreateRequest{M: 3, TTLMs: 5})
	time.Sleep(30 * time.Millisecond)
	if w := do(t, s, http.MethodGet, "/v1/session/"+brief.ID); w.Code != http.StatusNotFound {
		t.Fatalf("expired session: status %d", w.Code)
	}

	families, series := counterSums(t, get(t, s, "/metrics").Body.String())
	st := decodeBody[statuszResponse](t, get(t, s, "/v1/statusz"))

	if got := sortedKeys(st.Counters); strings.Join(got, ",") != strings.Join(statuszCounterKeys, ",") {
		t.Fatalf("statusz counters keys = %v, want %v", got, statuszCounterKeys)
	}
	for family, sum := range families {
		if strings.HasPrefix(family, "ringsched_solver_") {
			continue // process-wide solver counters; statusz does not carry them
		}
		key, known := counterFamilies[family]
		if !known {
			t.Errorf("counter family %s has no statusz key", family)
			continue
		}
		if st.Counters[key] != sum {
			t.Errorf("%s = %d on /metrics, statusz %s = %d", family, sum, key, st.Counters[key])
		}
	}
	for family := range counterFamilies {
		if _, ok := families[family]; !ok {
			t.Errorf("counter family %s missing from /metrics", family)
		}
	}

	var engines int64
	for name, n := range st.EngineComputes {
		engines += n
		if v := series[`ringserve_computes_total{engine="`+name+`"}`]; v != n {
			t.Errorf("engine %s: /metrics computes %d, statusz engineComputes %d", name, v, n)
		}
	}
	if st.Counters["computes"] != engines {
		t.Errorf("statusz computes %d != sum of engineComputes %d (%v)", st.Counters["computes"], engines, st.EngineComputes)
	}

	// The workload reached every counter it was built to move.
	for _, key := range []string{"requests", "cacheHits", "cacheMisses", "evictions", "badRequests",
		"computes", "peerServed", "sessionsCreated", "sessionAppends", "sessionsEvicted"} {
		if st.Counters[key] == 0 {
			t.Errorf("workload left %s at 0", key)
		}
	}
	for _, name := range []string{"pool", "bigring", "online"} {
		if st.EngineComputes[name] == 0 {
			t.Errorf("workload left engineComputes[%s] at 0", name)
		}
	}
}

// TestCanceledCountedOnce times a request out at each place a 504 comes
// from: a leader queued behind a parked worker, a follower coalesced
// onto that kind of leader, and a session append whose step outlives
// its deadline. Each must raise canceled by exactly 1 and badRequests
// by 0.
func TestCanceledCountedOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	// park occupies the one worker until the returned release is called.
	park := func() (release func()) {
		parked, block := make(chan struct{}), make(chan struct{})
		if !s.pool.trySubmit(func(time.Time, time.Duration) { close(parked); <-block }) {
			t.Fatal("could not park the worker")
		}
		<-parked
		return func() { close(block) }
	}
	timesOut := func(name string, run func() *httptest.ResponseRecorder) {
		t.Helper()
		before := s.Stats()
		w := run()
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504; body %s", name, w.Code, w.Body.String())
		}
		after := s.Stats()
		if d := after["canceled"] - before["canceled"]; d != 1 {
			t.Errorf("%s raised canceled by %d, want 1", name, d)
		}
		if d := after["badRequests"] - before["badRequests"]; d != 0 {
			t.Errorf("%s raised badRequests by %d, want 0", name, d)
		}
	}
	short := RequestOptions{TimeoutMs: 20}

	release := park()
	timesOut("leader", func() *httptest.ResponseRecorder {
		return post(t, s, "/v1/schedule", ScheduleRequest{Instance: unitInstance(t, []int64{5, 0, 1}), Algorithm: "A1", Options: short})
	})
	release()

	release = park()
	in := unitInstance(t, []int64{6, 0, 2, 0})
	body, _ := json.Marshal(ScheduleRequest{Instance: in, Algorithm: "C1"})
	leaderReq := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
	leader := make(chan int)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, leaderReq)
		leader <- w.Code
	}()
	// The leader has joined the flight once its compute sits queued.
	for deadline := time.Now().Add(5 * time.Second); s.pool.queueLen() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never queued")
		}
	}
	timesOut("follower", func() *httptest.ResponseRecorder {
		return post(t, s, "/v1/schedule", ScheduleRequest{Instance: in, Algorithm: "C1", Options: short})
	})
	release()
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader: status %d", code)
	}

	// Uncanceled, this append steps for about 0.3 s on a 2-vCPU machine,
	// over ten times its deadline.
	id := createSession(t, s, SessionCreateRequest{M: 20_000}).ID
	timesOut("session append", func() *httptest.ResponseRecorder {
		return post(t, s, "/v1/session/"+id+"/arrivals", SessionArrivalsRequest{
			Arrivals: []ArrivalBatch{{T: 0, Proc: 0, Count: 5_000_000}},
			Options:  short,
		})
	})
}
