package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ringsched/internal/metrics"
)

// TestCoalescingSingleCompute fires K concurrent requests for rotated
// and reflected copies of one instance — all the same canonical
// identity — and requires exactly one engine run, byte-identical
// bodies, and only legal cache verdicts. The singleflight group plus
// the leader's cache re-check make the count deterministic: whichever
// request leads computes once, every other request either coalesces
// onto it or hits the cache it filled.
func TestCoalescingSingleCompute(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	in := unitInstance(t, []int64{9, 1, 4, 0, 7, 2, 5, 3})

	const k = 24
	type reply struct {
		status  int
		verdict string
		body    []byte
	}
	replies := make([]reply, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			copyIn := in.Rotate(i % in.M)
			if i%2 == 1 {
				copyIn = copyIn.Reflect()
			}
			w := post(t, s, "/v1/schedule", ScheduleRequest{Instance: copyIn, Algorithm: "C1"})
			replies[i] = reply{status: w.Code, verdict: w.Header().Get("X-Ringserve-Cache"), body: w.Body.Bytes()}
		}(i)
	}
	wg.Wait()

	first := replies[0].body
	verdicts := map[string]int{}
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.status, r.body)
		}
		if !bytes.Equal(first, r.body) {
			t.Fatalf("request %d body differs across dihedral copies:\n%s\nvs\n%s", i, first, r.body)
		}
		verdicts[r.verdict]++
	}
	for v := range verdicts {
		if v != "miss" && v != "coalesced" && v != "hit" {
			t.Fatalf("unexpected cache verdict %q (distribution %v)", v, verdicts)
		}
	}
	if verdicts["miss"] != 1 {
		t.Errorf("want exactly 1 miss verdict, got distribution %v", verdicts)
	}
	if got := s.Stats()["computes"]; got != 1 {
		t.Errorf("engine ran %d times for %d concurrent dihedral copies, want exactly 1 (verdicts %v)", got, k, verdicts)
	}
	if got := s.Stats()["coalesced"]; got != int64(verdicts["coalesced"]) {
		t.Errorf("coalesced counter %d != coalesced verdicts %d", got, verdicts["coalesced"])
	}
}

// TestReadyzLifecycle walks /v1/readyz through the three states: ready
// while serving, 503 starting when a cluster wrapper holds readiness
// back, and 503 draining after Close.
func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	get := func() (int, string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/readyz", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}

	if code, body := get(); code != http.StatusOK {
		t.Fatalf("fresh server readyz = %d %s, want 200", code, body)
	}
	s.SetReady(false)
	if code, body := get(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("starting")) {
		t.Fatalf("not-ready readyz = %d %s, want 503 starting", code, body)
	}
	s.SetReady(true)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("re-readied readyz = %d, want 200", code)
	}
	s.Close()
	if code, body := get(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("draining readyz = %d %s, want 503 draining", code, body)
	}
	// Liveness stays up through the drain: a draining node is alive.
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", w.Code)
	}
}

// TestCacheConcurrentShardedLRU hammers the sharded LRU from many
// goroutines with a keyspace larger than capacity and checks the
// invariants that matter under -race: accounting exactness
// (hits+misses == lookups), bounded occupancy, eviction flow, and that
// a hit never returns another key's body.
func TestCacheConcurrentShardedLRU(t *testing.T) {
	stats := metrics.NewCounters[stat](statRows[:])
	const (
		shards   = 4
		capacity = 32 // 8 per shard
		keys     = 256
		workers  = 8
		opsEach  = 2000
	)
	c := newCache(capacity, shards, stats)
	bodyFor := func(k int) []byte { return []byte(fmt.Sprintf("body-%03d", k)) }

	var wg sync.WaitGroup
	var lookups, corrupt int64
	var mu sync.Mutex
	distinct := map[int]bool{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			myLookups := 0
			used := map[int]bool{}
			for i := 0; i < opsEach; i++ {
				// Hot head + cold tail: half the lookups revisit a small
				// resident set (hits), half scan a keyspace far over
				// capacity (misses and evictions).
				var k int
				if i%2 == 0 {
					k = (w + i) % 8
				} else {
					k = 8 + (w*31+i*17)%(keys-8)
				}
				used[k] = true
				key := fmt.Sprintf("key-%03d", k)
				body, ok := c.get(key)
				myLookups++
				if ok && !bytes.Equal(body, bodyFor(k)) {
					mu.Lock()
					corrupt++
					mu.Unlock()
					continue
				}
				if !ok {
					c.put(key, bodyFor(k))
				}
			}
			mu.Lock()
			lookups += int64(myLookups)
			for k := range used {
				distinct[k] = true
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if corrupt != 0 {
		t.Fatalf("%d hits returned another key's body", corrupt)
	}
	snap := stats.Snapshot()
	hits, misses, evictions := snap.Get(statCacheHits), snap.Get(statCacheMisses), snap.Get(statEvictions)
	if hits+misses != lookups {
		t.Errorf("hits %d + misses %d != lookups %d", hits, misses, lookups)
	}
	if got := c.len(); got > capacity {
		t.Errorf("cache holds %d entries, capacity %d", got, capacity)
	}
	// Each key's first put is a fresh insert (racing putters collapse to
	// one), so at least distinct-capacity evictions happened; and nothing
	// can be evicted that was never inserted after a miss.
	if evictions < int64(len(distinct)-capacity) {
		t.Errorf("evictions %d too low for %d distinct keys and capacity %d", evictions, len(distinct), capacity)
	}
	if evictions >= misses {
		t.Errorf("evictions %d >= misses %d: evicting more than was inserted", evictions, misses)
	}
	if hits == 0 || evictions == 0 {
		t.Errorf("test exercised nothing: hits %d evictions %d", hits, evictions)
	}
}
