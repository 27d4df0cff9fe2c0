package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ringsched/internal/metrics"
	"ringsched/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestClusterMetricsGolden pins GET /metrics of a fresh, never-started
// cluster node byte for byte (run with -update to regenerate testdata):
// the server's own families followed by the cluster's — the peer
// counters, the state-labeled breaker-transition family, the per-peer
// breaker gauges and the members gauge.
func TestClusterMetricsGolden(t *testing.T) {
	n := New(Config{
		Self:  "10.0.0.1:8372",
		Peers: []string{"10.0.0.1:8372", "10.0.0.3:8372", "10.0.0.2:8372"},
	}, serve.Config{Workers: 2})
	t.Cleanup(n.Server().Close)

	w := httptest.NewRecorder()
	n.Server().Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	got := w.Body.Bytes()
	if err := metrics.CheckPromText(bytes.NewReader(got)); err != nil {
		t.Fatalf("exposition fails format check: %v", err)
	}

	golden := filepath.Join("testdata", "metrics_cluster_fresh.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run go test -run TestClusterMetricsGolden -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestStatuszGolden pins the whole /v1/statusz document (run with
// -update to regenerate testdata). A fresh server takes a fixed request
// sequence: a schedule miss, its hit, an explicit bigring run, a 400 and
// one /v1/optimal. Its document, plus the cluster block of a fresh,
// never-started node built as in TestClusterMetricsGolden, is flattened
// to sorted "path value" lines. uptimeSec and every *Ms value are
// wall-clock readings and are masked; key order is not pinned.
func TestStatuszGolden(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	t.Cleanup(s.Close)
	const ring = `{"kind":"unit","m":4,"unit":[9,0,0,3]}`
	for _, step := range []struct {
		path, body string
		status     int
	}{
		{"/v1/schedule", `{"instance":` + ring + `,"algorithm":"C1"}`, http.StatusOK},
		{"/v1/schedule", `{"instance":` + ring + `,"algorithm":"C1"}`, http.StatusOK},
		{"/v1/schedule", `{"instance":` + ring + `,"algorithm":"C1","options":{"engine":"bigring"}}`, http.StatusOK},
		{"/v1/schedule", `{"instance":` + ring + `,"algorithm":"Z9"}`, http.StatusBadRequest},
		{"/v1/optimal", `{"instance":` + ring + `}`, http.StatusOK},
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, step.path, strings.NewReader(step.body)))
		if w.Code != step.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", step.path, step.body, w.Code, step.status, w.Body.String())
		}
	}
	statusz := func(h http.Handler) map[string]any {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/statusz", nil))
		dec := json.NewDecoder(w.Body)
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("decode statusz: %v", err)
		}
		return doc
	}
	// A worker counts as busy until just after its result is handed
	// over, so wait for the pool to go idle.
	doc := statusz(s.Handler())
	for deadline := time.Now().Add(5 * time.Second); doc["workersBusy"] != json.Number("0"); doc = statusz(s.Handler()) {
		if time.Now().After(deadline) {
			t.Fatalf("workersBusy stuck at %v", doc["workersBusy"])
		}
		time.Sleep(time.Millisecond)
	}

	n := New(Config{
		Self:  "10.0.0.1:8372",
		Peers: []string{"10.0.0.1:8372", "10.0.0.3:8372", "10.0.0.2:8372"},
	}, serve.Config{Workers: 2})
	t.Cleanup(n.Server().Close)
	doc["cluster"] = statusz(n.Server().Handler())["cluster"]

	var lines []string
	var flatten func(path string, v any)
	flatten = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				flatten(path+"."+k, e)
			}
		case []any:
			for i, e := range v {
				flatten(fmt.Sprintf("%s.%d", path, i), e)
			}
		default:
			leaf := path[strings.LastIndexByte(path, '.')+1:]
			val, _ := json.Marshal(v)
			if leaf == "uptimeSec" || strings.HasSuffix(leaf, "Ms") {
				val = []byte("<masked>")
			}
			lines = append(lines, path[1:]+" "+string(val))
		}
	}
	flatten("", doc)
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	golden := filepath.Join("testdata", "statusz.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run go test -run TestStatuszGolden -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("statusz drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// clusterCounterSeries maps each cluster counter sample on /metrics onto
// its key in the /v1/statusz cluster block. It is literal, recorded from
// the exposition, so that renaming a key or a family fails here.
var clusterCounterSeries = map[string]string{
	"ringserve_peer_fetches_total":                             "peerFetches",
	"ringserve_peer_fetch_failures_total":                      "peerFetchFailures",
	"ringserve_peer_retries_total":                             "peerRetries",
	"ringserve_degraded_total":                                 "degraded",
	`ringserve_peer_breaker_transitions_total{state="open"}`:   "breakerOpens",
	`ringserve_peer_breaker_transitions_total{state="closed"}`: "breakerCloses",
	"ringserve_peer_probes_total":                              "probes",
	"ringserve_peer_probe_failures_total":                      "probeFailures",
}

// TestClusterCountersAgree crash-stops the owner of a key, serves that
// key from the survivor (retries, fetch failures, degradation), then
// requires the survivor's cluster block "counters" to hold exactly the
// eight recorded keys, each equal to its /metrics sample.
func TestClusterCountersAgree(t *testing.T) {
	ns := liveNodes(t, 2, serve.Config{Workers: 2})
	in := peerOwnedInstance(t, ns[0].n, "A1")
	ns[1].kill()
	if resp, body := schedulePost(t, ns[0].base, in, "A1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request failed: %d %s", resp.StatusCode, body)
	}

	get := func(path string) []byte {
		w := httptest.NewRecorder()
		ns[0].n.Server().Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Body.Bytes()
	}
	var st struct {
		Cluster struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(get("/v1/statusz"), &st); err != nil {
		t.Fatal(err)
	}
	counters := st.Cluster.Counters
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "breakerCloses,breakerOpens,degraded,peerFetchFailures,peerFetches,peerRetries,probeFailures,probes"
	if strings.Join(keys, ",") != want {
		t.Fatalf("cluster counters keys = %v, want %s", keys, want)
	}

	samples := map[string]int64{}
	for _, line := range strings.Split(string(get("/metrics")), "\n") {
		series, val, _ := strings.Cut(line, " ")
		if _, ok := clusterCounterSeries[series]; ok {
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[series] = v
		}
	}
	for series, key := range clusterCounterSeries {
		v, ok := samples[series]
		if !ok {
			t.Errorf("series %s missing from /metrics", series)
		} else if v != counters[key] {
			t.Errorf("%s = %d on /metrics, cluster block %s = %d", series, v, key, counters[key])
		}
	}
	if counters["degraded"] == 0 || counters["peerFetchFailures"] == 0 || counters["probes"] == 0 {
		t.Errorf("workload left the fault counters at 0: %v", counters)
	}
}
