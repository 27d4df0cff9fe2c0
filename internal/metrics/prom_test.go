package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestPromWriterGolden pins the byte-level output of the writer for
// counters and gauges: family ordering, label rendering, escaping and
// value formatting are all part of the /metrics contract.
func TestPromWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	demo := NewCounters[int]([]Counter{{Key: "demo", Name: "demo_total", Help: "A counter."}})
	for i := 0; i < 3; i++ {
		demo.Inc(0)
	}
	demo.Snapshot().WriteProm(p)
	p.Gauge("demo_gauge", "A gauge with\nnewline help.",
		PromSample{Labels: []PromLabel{{Name: "ep", Value: `a"b\c`}}, Value: 1.5},
		PromSample{Labels: []PromLabel{{Name: "ep", Value: "plain"}}, Value: 2},
	)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP demo_total A counter.",
		"# TYPE demo_total counter",
		"demo_total 3",
		"# HELP demo_gauge A gauge with\\nnewline help.",
		"# TYPE demo_gauge gauge",
		`demo_gauge{ep="a\"b\\c"} 1.5`,
		`demo_gauge{ep="plain"} 2`,
		"",
	}, "\n")
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", buf.String(), want)
	}
	if err := CheckPromText(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("golden output fails own checker: %v", err)
	}
}

// TestPromHistogramExposition renders a real histogram and checks the
// native convention end to end: cumulative buckets in seconds, +Inf,
// _sum and _count — both via the checker and by direct inspection.
func TestPromHistogramExposition(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Histogram("lat_seconds", "Latency.", PromHistogram{
		Labels:   []PromLabel{{Name: "endpoint", Value: "schedule"}},
		Snapshot: h.Snapshot(),
	})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckPromText(strings.NewReader(out)); err != nil {
		t.Fatalf("checker rejects histogram exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		`lat_seconds_bucket{endpoint="schedule",le="+Inf"} 3`,
		`lat_seconds_count{endpoint="schedule"} 3`,
		// 1.024µs boundary: the 500ns sample is already inside it.
		`lat_seconds_bucket{endpoint="schedule",le="1.024e-06"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "lat_seconds_bucket{"); n != NumHistBuckets+1 {
		t.Errorf("bucket lines = %d, want %d", n, NumHistBuckets+1)
	}
}

// TestCheckPromTextRejects feeds the checker the malformations it
// exists to catch.
func TestCheckPromTextRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"undeclared family", "foo_total 1\n", "undeclared"},
		{"type without help", "# TYPE foo counter\nfoo 1\n", "no HELP"},
		{"duplicate series",
			"# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n", "duplicate series"},
		{"negative counter",
			"# HELP foo x\n# TYPE foo counter\nfoo -1\n", "negative counter"},
		{"bad label",
			"# HELP foo x\n# TYPE foo counter\nfoo{__bad=\"1\"} 1\n", "bad label"},
		{"bare histogram sample",
			"# HELP h x\n# TYPE h histogram\nh 1\n", "bare sample"},
		{"non-cumulative buckets",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\n" + "h_count 5\nh_sum 1\n",
			"not cumulative"},
		{"le not increasing",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\n" + "h_count 2\nh_sum 1\n",
			"not increasing"},
		{"count disagrees with inf",
			"# HELP h x\n# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 2` + "\n" + "h_count 3\nh_sum 1\n",
			"!= +Inf"},
		{"missing inf",
			"# HELP h x\n# TYPE h histogram\n" + `h_bucket{le="1"} 1` + "\n" + "h_sum 1\n",
			"no +Inf"},
		{"missing count",
			"# HELP h x\n# TYPE h histogram\n" + `h_bucket{le="+Inf"} 1` + "\n" + "h_sum 1\n",
			"no _count"},
		{"garbage value",
			"# HELP foo x\n# TYPE foo counter\nfoo abc\n", "bad value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckPromText(strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("checker accepted:\n%s", tc.text)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFormatPromValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-2, "-2"},
		{1.5, "1.5"},
		{0.000001024, "1.024e-06"},
	}
	for _, tc := range cases {
		if got := formatPromValue(tc.v); got != tc.want {
			t.Errorf("formatPromValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
