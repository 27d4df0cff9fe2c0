package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is a hand-rolled Prometheus text-exposition (version 0.0.4)
// writer and checker — enough of the format for GET /metrics without
// pulling in a client library. The writer emits metric families in the
// order the caller declares them, with labels rendered in the given
// order, so output is byte-stable for a given counter state (golden
// tests in internal/serve rely on that).

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromLabel is one name="value" pair.
type PromLabel struct {
	Name  string
	Value string
}

// PromSample is one sample line of a counter or gauge family.
type PromSample struct {
	Labels []PromLabel
	Value  float64
}

// PromWriter renders metric families. Errors are sticky: the first
// write failure is kept and returned by Flush.
type PromWriter struct {
	w   *bufio.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// Flush drains the buffer and reports the first error encountered.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the # HELP and # TYPE lines of one family.
func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// sample emits one sample line.
func (p *PromWriter) sample(name string, labels []PromLabel, value float64) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatPromValue(value))
}

// Gauge emits a gauge family.
func (p *PromWriter) Gauge(name, help string, samples ...PromSample) {
	p.header(name, help, "gauge")
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// PromHistogram is one labeled series of a histogram family.
type PromHistogram struct {
	Labels   []PromLabel
	Snapshot HistogramSnapshot
}

// Histogram emits a histogram family in the native convention:
// cumulative _bucket samples with an le label (seconds), then _sum and
// _count. Bucket boundaries are the package's fixed layout.
func (p *PromWriter) Histogram(name, help string, series ...PromHistogram) {
	p.header(name, help, "histogram")
	for _, h := range series {
		var cum int64
		for i := 0; i <= NumHistBuckets; i++ {
			cum += h.Snapshot.Buckets[i]
			le := "+Inf"
			if i < NumHistBuckets {
				le = formatPromValue(HistBucketBound(i).Seconds())
			}
			labels := append(append([]PromLabel(nil), h.Labels...), PromLabel{Name: "le", Value: le})
			p.sample(name+"_bucket", labels, float64(cum))
		}
		p.sample(name+"_sum", h.Labels, float64(h.Snapshot.SumNs)/1e9)
		p.sample(name+"_count", h.Labels, float64(h.Snapshot.Count))
	}
}

// formatPromValue renders a float the way Prometheus expects: integers
// without a decimal point, everything else in shortest-round-trip form.
func formatPromValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func renderLabels(labels []PromLabel) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// CheckPromText validates a text exposition against the format rules a
// Prometheus scraper enforces, plus the histogram invariants: every
// sample belongs to a declared family and follows its TYPE/HELP lines,
// label syntax and value syntax are well-formed, no series repeats,
// histogram buckets are cumulative (non-decreasing), end in +Inf, and
// agree with _count. It is the test oracle for GET /metrics.
func CheckPromText(r io.Reader) error {
	type histState struct {
		lastLe   float64
		lastCum  float64
		sawInf   bool
		infCum   float64
		sawCount bool
	}
	var (
		sc       = bufio.NewScanner(r)
		declared = map[string]string{} // family -> type
		helped   = map[string]bool{}
		seen     = map[string]bool{} // full series key
		hists    = map[string]*histState{}
		lineNo   int
	)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("prom: line %d: %s (%q)", lineNo, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return fail("malformed HELP")
			}
			if helped[name] {
				return fail("duplicate HELP for %s", name)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !validMetricName(fields[0]) {
				return fail("malformed TYPE")
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fail("unknown type %q", fields[1])
			}
			if _, dup := declared[fields[0]]; dup {
				return fail("duplicate TYPE for %s", fields[0])
			}
			declared[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fail("%v", err)
		}
		family := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name && declared[base] == "histogram" {
				family, suffix = base, sfx
				break
			}
		}
		typ, ok := declared[family]
		if !ok {
			return fail("sample for undeclared family %s", family)
		}
		if !helped[family] {
			return fail("family %s has TYPE but no HELP", family)
		}
		if typ == "histogram" && suffix == "" {
			return fail("bare sample %s for histogram family", name)
		}
		seriesKey := name + renderLabels(labels)
		if seen[seriesKey] {
			return fail("duplicate series %s", seriesKey)
		}
		seen[seriesKey] = true
		if typ == "counter" && value < 0 {
			return fail("negative counter")
		}

		if typ == "histogram" {
			// One state machine per (family, labels-minus-le) series.
			var le string
			var rest []PromLabel
			for _, l := range labels {
				if l.Name == "le" {
					le = l.Value
				} else {
					rest = append(rest, l)
				}
			}
			key := family + renderLabels(rest)
			st := hists[key]
			if st == nil {
				st = &histState{lastLe: -1}
				hists[key] = st
			}
			switch suffix {
			case "_bucket":
				if le == "" {
					return fail("bucket without le label")
				}
				if st.sawInf {
					return fail("bucket after +Inf for %s", key)
				}
				bound := 0.0
				if le == "+Inf" {
					st.sawInf = true
					st.infCum = value
				} else {
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						return fail("unparsable le %q", le)
					}
					if bound <= st.lastLe {
						return fail("le %q not increasing for %s", le, key)
					}
					st.lastLe = bound
				}
				if value < st.lastCum {
					return fail("bucket counts not cumulative for %s", key)
				}
				st.lastCum = value
			case "_count":
				if !st.sawInf {
					return fail("_count before +Inf bucket for %s", key)
				}
				if value != st.infCum {
					return fail("_count %v != +Inf bucket %v for %s", value, st.infCum, key)
				}
				st.sawCount = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("prom: %w", err)
	}
	for key, st := range hists {
		if !st.sawInf {
			return fmt.Errorf("prom: histogram %s has no +Inf bucket", key)
		}
		if !st.sawCount {
			return fmt.Errorf("prom: histogram %s has no _count", key)
		}
	}
	return nil
}

// parsePromSample splits "name{a="b",...} 1.5" into its parts.
func parsePromSample(line string) (name string, labels []PromLabel, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("no value")
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitLabelPairs(body) {
			ln, lv, ok := strings.Cut(pair, "=")
			if !ok || !validLabelName(ln) || len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
				return "", nil, 0, fmt.Errorf("bad label pair %q", pair)
			}
			labels = append(labels, PromLabel{Name: ln, Value: lv[1 : len(lv)-1]})
		}
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; we emit none, but accept one.
	valStr, _, _ := strings.Cut(rest, " ")
	switch valStr {
	case "+Inf":
		value = math.Inf(1)
	case "-Inf":
		value = math.Inf(-1)
	default:
		value, err = strconv.ParseFloat(valStr, 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("bad value %q", valStr)
		}
	}
	return name, labels, value, nil
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, body[start:])
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
