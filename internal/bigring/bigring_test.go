package bigring

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/metrics"
	"ringsched/internal/sim"
	"ringsched/internal/workload"
)

// allSpecs is every algorithm the big-ring engine claims to reproduce:
// the six paper variants plus variant C's direct-rounding ablation and
// a non-default constant, which exercise the remaining quota branches.
func allSpecs() []bucket.Spec {
	return []bucket.Spec{
		bucket.A1(), bucket.B1(), bucket.C1(),
		bucket.A2(), bucket.B2(), bucket.C2(),
		{Variant: bucket.VariantC, DirectRounding: true},
		{Variant: bucket.VariantC, Bidirectional: true, DirectRounding: true},
		{Variant: bucket.VariantC, C: 1.2},
		{Variant: bucket.VariantA, Bidirectional: true, C: 1.5},
	}
}

// testInstances is the differential corpus: every ring size crossed
// with point, region, all-equal and seeded-random loads, plus the
// degenerate cases (empty ring, single processor, single unit).
func testInstances(t *testing.T) []instance.Instance {
	t.Helper()
	var ins []instance.Instance
	for _, m := range []int{1, 2, 3, 5, 16, 64, 257, 512} {
		ins = append(ins,
			workload.Point(m, 4*int64(m)),
			workload.Point(m, 1),
			workload.Region(m, 17),
			workload.Uniform(m, 40, int64(7*m+1)),
			workload.Uniform(m, 3, int64(m)),
		)
		equal := make([]int64, m)
		for i := range equal {
			equal[i] = 9
		}
		ins = append(ins, instance.NewUnit(equal))
	}
	ins = append(ins, instance.NewUnit(make([]int64, 8))) // no work at all
	return ins
}

// TestDifferentialAgainstSim is the core equality claim: on its domain
// (unit jobs, fault-free, speed/transit 1) the big-ring engine must be
// indistinguishable from the pool engine in every Result field.
func TestDifferentialAgainstSim(t *testing.T) {
	for _, spec := range allSpecs() {
		for _, in := range testInstances(t) {
			name := fmt.Sprintf("%s/m%d/n%d", spec.Name(), in.M, in.TotalWork())
			want, err := sim.Run(in, spec, sim.Options{})
			if err != nil {
				t.Fatalf("%s: sim.Run: %v", name, err)
			}
			got, err := Run(in, spec, Options{})
			if err != nil {
				t.Fatalf("%s: bigring.Run: %v", name, err)
			}
			if got.Makespan != want.Makespan || got.Steps != want.Steps ||
				got.JobHops != want.JobHops || got.Messages != want.Messages {
				t.Errorf("%s: scalars differ:\n got  makespan=%d steps=%d jobhops=%d messages=%d\n want makespan=%d steps=%d jobhops=%d messages=%d",
					name, got.Makespan, got.Steps, got.JobHops, got.Messages,
					want.Makespan, want.Steps, want.JobHops, want.Messages)
				continue
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
	}
}

// TestDifferentialCollector runs both engines under a Ring collector
// and compares the aggregate telemetry: same sends, same deliveries,
// same step count, same processed totals.
func TestDifferentialCollector(t *testing.T) {
	for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2(), bucket.B2()} {
		in := workload.Uniform(64, 25, 11)
		simRM := metrics.New(metrics.Opts{})
		if _, err := sim.Run(in, spec, sim.Options{Collector: simRM}); err != nil {
			t.Fatalf("%s: sim.Run: %v", spec.Name(), err)
		}
		bigRM := metrics.New(metrics.Opts{})
		if _, err := Run(in, spec, Options{Collector: bigRM}); err != nil {
			t.Fatalf("%s: bigring.Run: %v", spec.Name(), err)
		}
		got, want := bigRM.Summary(), simRM.Summary()
		if got != want {
			t.Errorf("%s: telemetry summaries differ:\n got  %+v\n want %+v", spec.Name(), got, want)
		}
	}
}

// TestReset proves a reused engine reproduces its first run exactly.
func TestReset(t *testing.T) {
	in := workload.Uniform(128, 30, 3)
	for _, spec := range []bucket.Spec{bucket.C1(), bucket.A2()} {
		e, err := New(in, spec, Options{})
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
			t.Errorf("%s: rerun after Reset differs:\n first  %+v\n second %+v", spec.Name(), first, second)
		}
	}
}

// TestRejectsSized pins the domain boundary: sized instances belong to
// the pool engine and must be refused with the typed sentinel.
func TestRejectsSized(t *testing.T) {
	in := workload.RandomSized(16, 40, 9, 5)
	if _, err := New(in, bucket.C1(), Options{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("New(sized) err = %v, want ErrUnsupported", err)
	}
}

// TestStepLimitParity holds the step-limit behavior equal to the pool
// engine: a bound too small for the drain tail fails on both, with the
// same sentinel.
func TestStepLimitParity(t *testing.T) {
	in := workload.Point(8, 400)
	_, simErr := sim.Run(in, bucket.C1(), sim.Options{MaxSteps: 5})
	_, bigErr := Run(in, bucket.C1(), Options{MaxSteps: 5})
	if !errors.Is(simErr, sim.ErrNotQuiescent) {
		t.Fatalf("sim err = %v, want ErrNotQuiescent", simErr)
	}
	if !errors.Is(bigErr, sim.ErrNotQuiescent) {
		t.Fatalf("bigring err = %v, want ErrNotQuiescent", bigErr)
	}
}
