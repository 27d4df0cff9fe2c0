package metrics

import "sync/atomic"

// Counter declares one row of an owner's counter table: the key it
// shows under in JSON views (/v1/statusz), its Prometheus family and
// help text, and an optional label. Two rules cover labeled families:
// rows sharing a Key show as their sum in JSON, and adjacent rows
// sharing a Name render as one family with one labeled sample per row.
type Counter struct {
	Key   string
	Name  string
	Help  string
	Label PromLabel // zero for an unlabeled family
}

// Labeled returns c under key with the label name=value: one row of a
// family whose name and help are declared once.
func (c Counter) Labeled(key, name, value string) Counter {
	c.Key, c.Label = key, PromLabel{Name: name, Value: value}
	return c
}

// Counters is a block of atomic counters declared by a table of rows:
// slot k counts row k, and K is the owner's index enum. Adding a
// counter costs one enum entry and one row; every surface renders from
// the row. Safe for concurrent use.
type Counters[K ~int] struct {
	rows []Counter
	v    []atomic.Int64
}

// NewCounters returns a zeroed block for rows.
func NewCounters[K ~int](rows []Counter) *Counters[K] {
	return &Counters[K]{rows: rows, v: make([]atomic.Int64, len(rows))}
}

// Inc adds one to slot k: one atomic add, with no lock or allocation.
func (c *Counters[K]) Inc(k K) { c.v[k].Add(1) }

// Snapshot returns the current counter values.
func (c *Counters[K]) Snapshot() CounterSnapshot[K] {
	v := make([]int64, len(c.v))
	for i := range c.v {
		v[i] = c.v[i].Load()
	}
	return CounterSnapshot[K]{rows: c.rows, v: v}
}

// CounterSnapshot is a point-in-time copy of a Counters block.
type CounterSnapshot[K ~int] struct {
	rows []Counter
	v    []int64
}

// Get returns slot k.
func (s CounterSnapshot[K]) Get(k K) int64 { return s.v[k] }

// Sub returns the counter deltas accumulated since an earlier snapshot.
func (s CounterSnapshot[K]) Sub(b CounterSnapshot[K]) CounterSnapshot[K] {
	v := make([]int64, len(s.v))
	for i := range v {
		v[i] = s.v[i] - b.v[i]
	}
	return CounterSnapshot[K]{rows: s.rows, v: v}
}

// Map is the JSON view: one entry per key, rows sharing a key summed.
func (s CounterSnapshot[K]) Map() map[string]int64 {
	m := make(map[string]int64, len(s.rows))
	for i, r := range s.rows {
		m[r.Key] += s.v[i]
	}
	return m
}

// WriteProm renders the snapshot as counter families in table order:
// each run of adjacent rows sharing a Name is one family (the first
// row's help text), one sample per row.
func (s CounterSnapshot[K]) WriteProm(p *PromWriter) {
	for i, r := range s.rows {
		if i == 0 || s.rows[i-1].Name != r.Name {
			p.header(r.Name, r.Help, "counter")
		}
		var labels []PromLabel
		if r.Label.Name != "" {
			labels = []PromLabel{r.Label}
		}
		p.sample(r.Name, labels, float64(s.v[i]))
	}
}
