package online

import (
	"math/rand"
	"testing"

	"ringsched/internal/lb"
)

// lowerBoundPerThreshold is the LowerBound that LowerBound replaces: a
// fresh work vector and the O(m²) all-windows Lemma 1 scan for every
// distinct release time.
func lowerBoundPerThreshold(in Instance) int64 {
	var best int64
	seen := map[int64]bool{}
	for _, b := range in.Batches {
		if seen[b.Time] {
			continue
		}
		seen[b.Time] = true
		works := make([]int64, in.M)
		var n int64
		for _, c := range in.Batches {
			if c.Time >= b.Time {
				works[c.Proc] += c.Count
				n += c.Count
			}
		}
		static := max(windowBoundScan(works), (n+int64(in.M)-1)/int64(in.M))
		best = max(best, b.Time+static)
	}
	return best
}

func windowBoundScan(works []int64) int64 {
	m := len(works)
	var best int64
	for i := 0; i < m; i++ {
		for k := 1; k <= m; k++ {
			best = max(best, lb.WindowBoundAt(works, i, k))
		}
	}
	return best
}

// TestLowerBoundMatchesPerThreshold compares LowerBound, on an Instance
// and on an Engine fed the same batches over several appends, with the
// per-threshold reference on random instances with repeated release
// times and zero-count batches.
func TestLowerBoundMatchesPerThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(24)
		times := 1 + rng.Intn(6)
		var batches []Batch
		for k := rng.Intn(20); k >= 0; k-- {
			c := int64(rng.Intn(200))
			if rng.Intn(4) == 0 {
				c = 0
			}
			batches = append(batches, Batch{Time: int64(rng.Intn(times) * rng.Intn(40)), Proc: rng.Intn(m), Count: c})
		}
		in := mustInstance(t, m, batches)
		want := lowerBoundPerThreshold(in)
		if got := LowerBound(in); got != want {
			t.Fatalf("trial %d: LowerBound(%+v) = %d, per-threshold %d", trial, in, got, want)
		}
		eng, err := NewEngine(m, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for rest := batches; len(rest) > 0; {
			k := 1 + rng.Intn(len(rest))
			if err := eng.Append(rest[:k]...); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		if got := eng.LowerBound(); got != want {
			t.Fatalf("trial %d: Engine.LowerBound = %d, per-threshold %d", trial, got, want)
		}
	}
}

var sinkBound int64

// BenchmarkOnlineLowerBound: the shape of a streamed session's history,
// 64 batches of 8..64 jobs on a 64-ring, released a few steps apart.
func BenchmarkOnlineLowerBound(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	var batches []Batch
	var t int64
	for k := 0; k < 64; k++ {
		t += rng.Int63n(4)
		batches = append(batches, Batch{Time: t, Proc: rng.Intn(64), Count: 8 + rng.Int63n(57)})
	}
	in, err := NewInstance(64, batches)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sinkBound = LowerBound(in)
	}
}
