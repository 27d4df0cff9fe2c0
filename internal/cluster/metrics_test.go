package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

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
