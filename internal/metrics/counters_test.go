package metrics

import (
	"bytes"
	"testing"
)

type testStat int

const (
	testRequests testStat = iota
	testHitsA
	testHitsB
	testOpens
	testCloses
)

// TestCountersRendering pins the two table rules on every view: rows
// sharing a key show as their sum in the JSON map, and adjacent rows
// sharing a family name render as one family with a labeled sample per
// row.
func TestCountersRendering(t *testing.T) {
	transitions := Counter{Name: "t_transitions_total", Help: "Transitions."}
	hits := Counter{Name: "t_hits_total", Help: "Hits by shard."}
	c := NewCounters[testStat]([]Counter{
		testRequests: {Key: "requests", Name: "t_requests_total", Help: "Requests."},
		testHitsA:    hits.Labeled("hits", "shard", "a"),
		testHitsB:    hits.Labeled("hits", "shard", "b"),
		testOpens:    transitions.Labeled("opens", "state", "open"),
		testCloses:   transitions.Labeled("closes", "state", "closed"),
	})
	c.Inc(testRequests)
	c.Inc(testHitsA)
	c.Inc(testHitsB)
	c.Inc(testHitsB)
	c.Inc(testOpens)
	snap := c.Snapshot()

	if got := snap.Get(testHitsB); got != 2 {
		t.Fatalf("Get(hitsB) = %d, want 2", got)
	}
	m := snap.Map()
	want := map[string]int64{"requests": 1, "hits": 3, "opens": 1, "closes": 0}
	if len(m) != len(want) {
		t.Fatalf("map = %v, want %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("map = %v, want %v", m, want)
		}
	}

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	snap.WriteProm(p)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	wantProm := `# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total 1
# HELP t_hits_total Hits by shard.
# TYPE t_hits_total counter
t_hits_total{shard="a"} 1
t_hits_total{shard="b"} 2
# HELP t_transitions_total Transitions.
# TYPE t_transitions_total counter
t_transitions_total{state="open"} 1
t_transitions_total{state="closed"} 0
`
	if buf.String() != wantProm {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), wantProm)
	}
	if err := CheckPromText(&buf); err != nil {
		t.Fatal(err)
	}
}
