// Allocation and timing assertions. Excluded under the race detector:
// testing.AllocsPerRun is unreliable there (the detector itself
// allocates) and wall-clock ratios are meaningless.

//go:build !race

package bigring

import (
	"fmt"
	"testing"
	"time"

	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/sim"
	"ringsched/internal/workload"
)

// TestStepAllocFree is the tentpole's core claim: after New, a complete
// run — every Step call plus the Reset that rewinds it — performs zero
// heap allocations with a nil Collector.
func TestStepAllocFree(t *testing.T) {
	for _, spec := range allSpecs() {
		in := workload.Uniform(2048, 60, 9)
		e, err := New(in, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			e.Reset()
			for !e.Step() {
			}
		})
		e.Close()
		if allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", spec.Name(), allocs)
		}
	}
}

// TestParallelStepAllocFree extends the zero-alloc claim to forked
// steps: after the first Step has spawned the persistent workers, every
// further Step — fork, span passes, join, merge — is allocation-free.
// AllocsPerRun's warmup run absorbs the one-time spawn.
func TestParallelStepAllocFree(t *testing.T) {
	forceFork(t)
	for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2(), bucket.B2()} {
		in := workload.Uniform(4096, 60, 9)
		e, err := New(in, spec, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if e.Workers() != 4 {
			t.Fatalf("%s: Workers() = %d, want 4", spec.Name(), e.Workers())
		}
		allocs := testing.AllocsPerRun(3, func() {
			e.Reset()
			for !e.Step() {
			}
		})
		e.Close()
		if allocs != 0 {
			t.Errorf("%s: %v allocs per parallel run, want 0", spec.Name(), allocs)
		}
	}
}

// TestStepFasterThanPoolEngine pins the performance floor the package
// exists for: on a big ring the big-ring engine must advance a step at
// least 5x faster than the pool engine. The structural gap is far
// larger — the pool engine scans all m processors every step while the
// big-ring engine touches only live buckets (a point load has one) —
// so the 5x bar holds with orders of magnitude to spare on any machine.
func TestStepFasterThanPoolEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const m = 20000
	const steps = 300
	in := workload.Point(m, 40*int64(m)) // bucket stays alive well past `steps`

	best := func(f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	simTime := best(func() {
		s, err := sim.NewStepper(in, bucket.C1(), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if s.Step() {
				t.Fatal("pool engine finished early")
			}
		}
	})
	bigTime := best(func() {
		e, err := New(in, bucket.C1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < steps; i++ {
			if e.Step() {
				t.Fatal("big-ring engine finished early")
			}
		}
	})

	if float64(simTime) < 5*float64(bigTime) {
		t.Errorf("big-ring engine only %.1fx faster per step (pool %v vs bigring %v for %d steps at m=%d), want >= 5x",
			float64(simTime)/float64(bigTime), simTime, bigTime, steps, m)
	}
}

// TestSparseStepCostsLiveBuckets pins that a step costs what its live
// buckets cost, not what the ring's slots cost: after launch, a point
// load's step (one or two live buckets) must take under 1/50 of a dense
// ring's step, at a size where the spans exist and may fork.
func TestSparseStepCostsLiveBuckets(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const m = 1 << 17
	// perStep is the best of 3 mean costs of steps 1..steps of a fresh
	// engine; step 0 (the launch) is not timed.
	perStep := func(in instance.Instance, spec bucket.Spec, steps int) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			e, err := New(in, spec, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			e.Step()
			start := time.Now()
			for i := 0; i < steps; i++ {
				if e.Step() {
					t.Fatalf("%s: run ended before step %d", spec.Name(), i+1)
				}
			}
			d := time.Since(start) / time.Duration(steps)
			e.Close()
			bestD = min(bestD, d)
		}
		return bestD
	}
	for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2()} {
		sparse := perStep(workload.Point(m, 40*m), spec, 256)
		dense := perStep(workload.Uniform(m, 100, 7), spec, 8)
		if sparse*50 > dense {
			t.Errorf("%s: a sparse step costs 1/%.0f of a dense one (%v vs %v at m=%d), want under 1/50",
				spec.Name(), float64(dense)/float64(sparse), sparse, dense, m)
		}
	}
}

// BenchmarkBigRingStep is the package-local version of cmd/ringbench's
// pinned bigring_step suite: steady-state stepping on a dense random
// ring, Reset (not re-allocation) when a run completes. Expect 0 B/op.
func BenchmarkBigRingStep(b *testing.B) {
	for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2()} {
		for _, m := range []int{100_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/m%d", spec.Name(), m), func(b *testing.B) {
				e, err := New(workload.Uniform(m, 100, 7), spec, Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.Step() {
						e.Reset()
					}
				}
			})
		}
	}
}

// BenchmarkBigRingStepParallel is the package-local twin of
// cmd/ringbench's bigring_par suite: steady-state stepping at pinned
// span counts. On a single-core box the w>1 rows show dispatch
// overhead, not speedup; the ns/step ratio against w1 is the number
// BENCH_0003 pins.
func BenchmarkBigRingStepParallel(b *testing.B) {
	for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2()} {
		for _, m := range []int{100_000, 1_000_000} {
			for _, w := range []int{1, 4, 8} {
				b.Run(fmt.Sprintf("%s/m%d/w%d", spec.Name(), m, w), func(b *testing.B) {
					e, err := New(workload.Uniform(m, 100, 7), spec, Options{Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					defer e.Close()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if e.Step() {
							e.Reset()
						}
					}
				})
			}
		}
	}
}
