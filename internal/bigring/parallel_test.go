package bigring

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/metrics"
	"ringsched/internal/sim"
	"ringsched/internal/workload"
)

// parallelWorkerCounts are the span counts the equivalence tests force,
// chosen to hit every partition shape: even and odd counts, counts that
// do not divide m, and counts larger than small rings (where the engine
// caps spans at m — the m < P boundary). Span boundaries then fall
// inside bitmap words, which spans share, and on word boundaries.
var parallelWorkerCounts = []int{2, 3, 7, 8, 16, 600}

// runSeq runs the one-span reference for an instance/spec pair.
func runSeq(t *testing.T, in instance.Instance, spec bucket.Spec) sim.Result {
	t.Helper()
	res, err := Run(in, spec, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s/m%d: one-span run: %v", spec.Name(), in.M, err)
	}
	return res
}

// eachFanOut runs f twice: with every step forked across the spans, and
// with every step run inline. The live-count rule alone would never fork
// on these small rings. It restores the threshold afterwards.
func eachFanOut(f func(mode string)) {
	old := fanOutMin
	defer func() { fanOutMin = old }()
	for _, mode := range []struct {
		name string
		min  int
	}{{"fork", 0}, {"inline", math.MaxInt}} {
		fanOutMin = mode.min
		f(mode.name)
	}
}

// forceFork makes every step of the test fork across its spans.
func forceFork(t testing.TB) {
	old := fanOutMin
	fanOutMin = 0
	t.Cleanup(func() { fanOutMin = old })
}

// requireEqualResults compares every field of two Results (the slices
// included), failing with the first differing field.
func requireEqualResults(t *testing.T, name string, got, want sim.Result) {
	t.Helper()
	if got.Makespan != want.Makespan || got.Steps != want.Steps ||
		got.JobHops != want.JobHops || got.Messages != want.Messages {
		t.Errorf("%s: scalars differ:\n got  makespan=%d steps=%d jobhops=%d messages=%d\n want makespan=%d steps=%d jobhops=%d messages=%d",
			name, got.Makespan, got.Steps, got.JobHops, got.Messages,
			want.Makespan, want.Steps, want.JobHops, want.Messages)
		return
	}
	if !reflect.DeepEqual(got.Processed, want.Processed) {
		t.Errorf("%s: Processed differs", name)
	}
	if !reflect.DeepEqual(got.BusySteps, want.BusySteps) {
		t.Errorf("%s: BusySteps differs", name)
	}
	if !reflect.DeepEqual(got.MaxPool, want.MaxPool) {
		t.Errorf("%s: MaxPool differs", name)
	}
}

// TestParallelMatchesSequential is the span engine's core claim:
// stepping is bit-identical to one span at every span count, forked or
// inline, across every algorithm variant and the whole differential
// corpus (which TestDifferentialAgainstSim already ties to the pool
// engine).
func TestParallelMatchesSequential(t *testing.T) {
	for _, spec := range allSpecs() {
		for _, in := range testInstances(t) {
			want := runSeq(t, in, spec)
			eachFanOut(func(mode string) {
				for _, w := range parallelWorkerCounts {
					name := fmt.Sprintf("%s/m%d/n%d/w%d/%s", spec.Name(), in.M, in.TotalWork(), w, mode)
					got, err := Run(in, spec, Options{Workers: w})
					if err != nil {
						t.Fatalf("%s: span run: %v", name, err)
					}
					requireEqualResults(t, name, got, want)
				}
			})
		}
	}
}

// TestParallelPartitionBoundaries pins the span-partition edge cases by
// construction: more workers than processors (m < P, capped at m),
// worker counts that do not divide m, a two-processor ring, and the
// P == m case where every span holds exactly one processor.
func TestParallelPartitionBoundaries(t *testing.T) {
	for _, m := range []int{2, 3, 5, 8, 257} {
		in := workload.Uniform(m, 60, int64(3*m+1))
		for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2(), bucket.B2()} {
			want := runSeq(t, in, spec)
			eachFanOut(func(mode string) {
				for _, w := range []int{2, m - 1, m, m + 7, 4 * m} {
					if w < 2 {
						continue
					}
					name := fmt.Sprintf("%s/m%d/w%d/%s", spec.Name(), m, w, mode)
					e, err := New(in, spec, Options{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if wantW := min(w, m); e.Workers() != wantW {
						t.Fatalf("%s: Workers() = %d, want %d", name, e.Workers(), wantW)
					}
					for !e.Step() {
					}
					got, err := e.Result()
					e.Close()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireEqualResults(t, name, got, want)
				}
			})
		}
	}
}

// TestParallelSeededProperty is the randomized property check: random
// rings (sizes, loads, zero-runs) under random variants and span counts
// must reproduce the one-span result exactly, forked and inline. The
// seed is fixed, so a failure replays.
func TestParallelSeededProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	specs := allSpecs()
	iters := 120
	if testing.Short() {
		iters = 30
	}
	for i := 0; i < iters; i++ {
		m := 2 + rng.Intn(600)
		loads := make([]int64, m)
		for j := range loads {
			switch rng.Intn(3) {
			case 0: // hole
			case 1:
				loads[j] = int64(1 + rng.Intn(9))
			default:
				loads[j] = int64(1 + rng.Intn(400))
			}
		}
		in := instance.NewUnit(loads)
		spec := specs[rng.Intn(len(specs))]
		w := 2 + rng.Intn(12)
		want := runSeq(t, in, spec)
		eachFanOut(func(mode string) {
			name := fmt.Sprintf("iter%d/%s/m%d/w%d/%s", i, spec.Name(), m, w, mode)
			got, err := Run(in, spec, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireEqualResults(t, name, got, want)
		})
	}
}

// FuzzParallelEquivalence fuzzes the partition geometry directly: ring
// size, load seed and span count, each forked and inline. The seed
// corpus covers the boundary shapes; `go test` runs the corpus,
// `go test -fuzz` explores.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(uint16(2), int64(1), uint8(2), uint8(0))
	f.Add(uint16(3), int64(7), uint8(8), uint8(2))  // m < P
	f.Add(uint16(16), int64(9), uint8(3), uint8(5)) // P does not divide m
	f.Add(uint16(97), int64(42), uint8(97), uint8(3) /* P == m */)
	f.Add(uint16(257), int64(1234), uint8(7), uint8(1))
	specs := []bucket.Spec{
		bucket.A1(), bucket.B1(), bucket.C1(),
		bucket.A2(), bucket.B2(), bucket.C2(),
	}
	f.Fuzz(func(t *testing.T, m16 uint16, seed int64, workers uint8, specIdx uint8) {
		m := int(m16)
		if m < 1 || m > 2048 {
			t.Skip()
		}
		w := int(workers)
		if w < 2 {
			w = 2
		}
		spec := specs[int(specIdx)%len(specs)]
		rng := rand.New(rand.NewSource(seed))
		loads := make([]int64, m)
		for j := range loads {
			if rng.Intn(2) == 0 {
				loads[j] = int64(rng.Intn(200))
			}
		}
		in := instance.NewUnit(loads)
		want, err := Run(in, spec, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		eachFanOut(func(mode string) {
			got, err := Run(in, spec, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/m%d/w%d/%s: span result differs\n got  %+v\n want %+v",
					spec.Name(), m, w, mode, got, want)
			}
		})
	})
}

// TestParallelCollectorFallsBack pins the documented degrade: a
// collector forces one span (its stream is ordered), so the Summary
// equality the differential test proves carries over trivially — and
// the results still match.
func TestParallelCollectorFallsBack(t *testing.T) {
	in := workload.Uniform(64, 25, 11)
	rm := metrics.New(metrics.Opts{})
	e, err := New(in, bucket.C1(), Options{Workers: 8, Collector: rm})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Workers() != 1 {
		t.Fatalf("Workers() with a collector = %d, want 1 (one-span fallback)", e.Workers())
	}
	for !e.Step() {
	}
	got, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "collector-fallback", got, runSeq(t, in, bucket.C1()))
}

// TestParallelStepLimitParity holds MaxSteps behavior identical on
// forked steps: same sentinel, same truncation point.
func TestParallelStepLimitParity(t *testing.T) {
	forceFork(t)
	in := workload.Point(8, 400)
	_, seqErr := Run(in, bucket.C1(), Options{MaxSteps: 5, Workers: 1})
	_, parErr := Run(in, bucket.C1(), Options{MaxSteps: 5, Workers: 4})
	if !errors.Is(seqErr, sim.ErrNotQuiescent) {
		t.Fatalf("sequential err = %v, want ErrNotQuiescent", seqErr)
	}
	if !errors.Is(parErr, sim.ErrNotQuiescent) {
		t.Fatalf("parallel err = %v, want ErrNotQuiescent", parErr)
	}
}

// TestParallelReset proves Reset rewinds a forking engine for an
// identical rerun — the workers persist across resets.
func TestParallelReset(t *testing.T) {
	forceFork(t)
	in := workload.Uniform(128, 30, 3)
	e, err := New(in, bucket.A2(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for !e.Step() {
	}
	first, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	for !e.Step() {
	}
	second, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("parallel rerun after Reset differs:\n first  %+v\n second %+v", first, second)
	}
}

// TestParallelClose pins the lifecycle: Close is idempotent, safe on a
// never-stepped engine and on a one-span one, and Run leaks no
// goroutines (it closes its engine).
func TestParallelClose(t *testing.T) {
	forceFork(t)
	in := workload.Uniform(64, 10, 5)
	e, err := New(in, bucket.C1(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	seq, err := New(in, bucket.C1(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq.Close() // no-op on a one-span engine

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Run(in, bucket.C1(), Options{Workers: 6}); err != nil {
			t.Fatal(err)
		}
	}
	// Closed workers unwind asynchronously; give the scheduler a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after 5 parallel Runs: %d, was %d before (worker leak)", g, before)
	}
}

// TestSmallRingsNeverFork pins the live-count rule's promise: no Table 1
// ring (at most 2,000 buckets) reaches fanOutMin, so a suite run at any
// span count spawns no goroutine and cannot oversubscribe the machine.
func TestSmallRingsNeverFork(t *testing.T) {
	for _, c := range workload.Suite() {
		for _, spec := range []bucket.Spec{bucket.A1(), bucket.B2(), bucket.C2()} {
			e, err := New(c.In, spec, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			for !e.Step() {
			}
			e.Close()
			if e.spawned {
				t.Fatalf("%s/%s: an m=%d ring forked its spans", c.ID, spec.Name(), c.In.M)
			}
		}
	}
}
