package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"ringsched/internal/online"
	"ringsched/internal/serve"
)

func sameBodies(t *testing.T, what string, a, b []request) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d requests", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].fp != b[i].fp || a[i].key != b[i].key {
			t.Fatalf("%s: request %d differs between two generations from one seed", what, i)
		}
	}
}

func TestSameSeedSameStreams(t *testing.T) {
	h1, h2 := genHot(7, 256), genHot(7, 256)
	sameBodies(t, "hot warm", h1.warm, h2.warm)
	sameBodies(t, "hot timed", h1.timed, h2.timed)
	c1, c2 := genPool(7, "cold", coldWarm, 200, coldRing), genPool(7, "cold", coldWarm, 200, coldRing)
	sameBodies(t, "cold warm", c1.warm, c2.warm)
	sameBodies(t, "cold timed", c1.timed, c2.timed)
	g1, g2 := genPool(7, "huge", 2, 4, hugeRing), genPool(7, "huge", 2, 4, hugeRing)
	sameBodies(t, "huge", g1.timed, g2.timed)
	s1, s2 := genStream(7, 2, 4), genStream(7, 2, 4)
	for i := range s1.timed {
		for k := range s1.timed[i].waves {
			if !bytes.Equal(s1.timed[i].waves[k], s2.timed[i].waves[k]) {
				t.Fatalf("lifecycle %d wave %d differs between two generations", i, k)
			}
		}
	}
	if other := genPool(8, "cold", coldWarm, 200, coldRing); bytes.Equal(other.timed[0].body, c1.timed[0].body) {
		t.Fatal("seeds 7 and 8 generated the same cold request")
	}
}

// The traced run replays prefixes of the timed streams, so a shorter
// stream must be a prefix of a longer one.
func TestStreamsArePrefixStable(t *testing.T) {
	long := genPool(3, "cold", coldWarm, 300, coldRing)
	short := genPool(3, "cold", coldWarm, 100, coldRing)
	sameBodies(t, "cold prefix", long.timed[:100], short.timed)
	sameBodies(t, "hot prefix", genHot(3, 500).timed[:200], genHot(3, 200).timed)
}

func TestPoolFingerprintsDistinct(t *testing.T) {
	for _, p := range []struct {
		name string
		in   poolInputs
	}{
		{"cold", genPool(11, "cold", coldWarm, 2*coldCycle, coldRing)},
		{"huge", genPool(11, "huge", hugeWarm, 2*len(hugeCycle), hugeRing)},
	} {
		seen := map[string]bool{}
		for _, r := range append(append([]request(nil), p.in.warm...), p.in.timed...) {
			var req serve.ScheduleRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				t.Fatal(err)
			}
			if fp := req.Instance.Fingerprint().String(); fp != r.fp {
				t.Fatalf("%s: stored fingerprint %s, body's is %s", p.name, r.fp, fp)
			}
			if seen[r.fp] {
				t.Fatalf("%s: fingerprint %s repeats, so a request would be a cache hit", p.name, r.fp)
			}
			seen[r.fp] = true
		}
	}
}

func TestColdCycleCoversEveryCombination(t *testing.T) {
	seen := map[[3]int]bool{}
	for i := 0; i < coldCycle; i++ {
		m, alg, shape := coldPlan(i)
		seen[[3]int{m, int(alg[0])<<8 | int(alg[1]), shape}] = true
	}
	// coldSizes repeats sizes to weight them, so count distinct sizes.
	if want := 4 * len(algorithms) * len(coldShapes); len(seen) != want {
		t.Fatalf("one cold cycle has %d distinct (size, algorithm, shape) combinations, want %d", len(seen), want)
	}
}

// Every lifecycle has the same shape, and replaying it wave by wave on a
// fresh engine (as the daemon does) processes each wave's work and ends
// at the one-shot result.
func TestLifecyclesFixedLength(t *testing.T) {
	for _, lc := range genStream(5, 3, 6).timed {
		if len(lc.waves) != streamWaves || len(lc.waveWork) != streamWaves {
			t.Fatalf("lifecycle has %d waves, want %d", len(lc.waves), streamWaves)
		}
		eng, err := online.NewEngine(streamM, online.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for k, body := range lc.waves {
			var req serve.SessionArrivalsRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			if len(req.Arrivals) != streamBatches {
				t.Fatalf("wave %d has %d batches, want %d", k, len(req.Arrivals), streamBatches)
			}
			before := eng.Snapshot().Processed
			var bs []online.Batch
			for _, a := range req.Arrivals {
				bs = append(bs, online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count})
			}
			if err := eng.Append(bs...); err != nil {
				t.Fatalf("wave %d: %v", k, err)
			}
			if err := eng.StepQuiescent(context.Background()); err != nil {
				t.Fatal(err)
			}
			var done int64
			for v, p := range eng.Snapshot().Processed {
				done += p - before[v]
			}
			if done != lc.waveWork[k] {
				t.Fatalf("wave %d processed %d of %d jobs", k, done, lc.waveWork[k])
			}
		}
		if got := eng.Snapshot().Result; got.Makespan != lc.final.Makespan || got.Steps != lc.final.Steps {
			t.Fatalf("wave-by-wave run %+v differs from one-shot %+v", got, lc.final)
		}
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	lat := make([]time.Duration, 150)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	// 150 samples: p99 has 1 beyond, p95 has 7, p90 has 15.
	if v, p, beyond := tail(lat, 99); p != 90 || beyond != 15 || v != 135*time.Millisecond {
		t.Fatalf("tail = %v at p%v with %d beyond, want 135ms at p90 with 15", v, p, beyond)
	}
	if _, p, _ := tail(lat, 80); p != 80 {
		t.Fatalf("tail capped at p80 picked p%v", p)
	}
}
