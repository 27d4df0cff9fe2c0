package opt

import (
	"context"
	"math/rand"
	"testing"

	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
)

func TestProbeMemoDomination(t *testing.T) {
	m := probeMemo{maxInfeasible: 4}
	if f, known := m.lookup(4); !known || f {
		t.Errorf("lookup(4) = %v,%v, want infeasible,known", f, known)
	}
	if f, known := m.lookup(3); !known || f {
		t.Errorf("lookup(3) = %v,%v, want infeasible,known", f, known)
	}
	if _, known := m.lookup(5); known {
		t.Error("lookup(5) known before any verdict")
	}
	m.record(9, true)
	if f, known := m.lookup(9); !known || !f {
		t.Errorf("lookup(9) after record = %v,%v, want feasible,known", f, known)
	}
	if f, known := m.lookup(12); !known || !f {
		t.Errorf("lookup(12) = %v,%v, want feasible by domination", f, known)
	}
	if _, known := m.lookup(7); known {
		t.Error("lookup(7) known inside the open bracket")
	}
	m.record(7, false)
	if f, known := m.lookup(6); !known || f {
		t.Errorf("lookup(6) = %v,%v, want infeasible by domination", f, known)
	}
	m.record(8, true)
	if f, known := m.lookup(8); !known || !f {
		t.Errorf("lookup(8) = %v,%v, want feasible", f, known)
	}
}

func TestWarmMatchesColdUncapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(14)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(60))
		}
		in := instance.NewUnit(works)
		warm := Uncapacitated(in, Limits{})
		cold := Uncapacitated(in, Limits{NoWarmStart: true})
		if warm.Length != cold.Length || warm.Exact != cold.Exact {
			t.Errorf("trial %d %v: warm %+v != cold %+v", trial, works, warm, cold)
		}
	}
}

func TestWarmMatchesColdCapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(8)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(25))
		}
		in := instance.NewUnit(works)
		warm := Capacitated(in, Limits{})
		cold := Capacitated(in, Limits{NoWarmStart: true})
		if warm.Length != cold.Length || warm.Exact != cold.Exact {
			t.Errorf("trial %d %v: warm %+v != cold %+v", trial, works, warm, cold)
		}
	}
}

func TestUpperHintSeedsBracket(t *testing.T) {
	works := make([]int64, 200)
	works[0] = 400 // OPT = 20 (sqrt pile), via flow because of the second pile
	works[100] = 1
	in := instance.NewUnit(works)
	base := Uncapacitated(in, Limits{})
	if base.Length != 20 || !base.Exact {
		t.Fatalf("baseline: %+v", base)
	}
	for _, hint := range []int64{20, 21, 400} {
		r := Uncapacitated(in, Limits{UpperHint: hint})
		if r.Length != 20 || !r.Exact {
			t.Errorf("hint %d: %+v, want 20 exact", hint, r)
		}
	}
	// An exact hint settles the search with two probes: bound (infeasible,
	// since LB < OPT here) and the hint itself.
	r := Uncapacitated(in, Limits{UpperHint: 20})
	if r.FlowCalls > base.FlowCalls {
		t.Errorf("hinted search used %d probes, unhinted %d", r.FlowCalls, base.FlowCalls)
	}
}

func TestBadUpperHintStaysCorrect(t *testing.T) {
	// A hint below OPT is a caller bug; the solver must survive it.
	works := make([]int64, 200)
	works[0] = 400
	works[100] = 1
	in := instance.NewUnit(works)
	for _, hint := range []int64{1, 5, 19} {
		r := Uncapacitated(in, Limits{UpperHint: hint})
		if r.Length != 20 || !r.Exact {
			t.Errorf("bad hint %d: %+v, want 20 exact", hint, r)
		}
	}
	// Capacitated path too.
	capWorks := make([]int64, 40)
	capWorks[20] = 99
	capIn := instance.NewUnit(capWorks)
	want := Capacitated(capIn, Limits{})
	if !want.Exact {
		t.Fatalf("capacitated baseline not exact: %+v", want)
	}
	for _, hint := range []int64{1, want.Length - 1, want.Length, want.Length + 5} {
		if hint < 1 {
			continue
		}
		r := Capacitated(capIn, Limits{UpperHint: hint})
		if r.Length != want.Length || !r.Exact {
			t.Errorf("cap hint %d: %+v, want %d exact", hint, r, want.Length)
		}
	}
}

func TestContextCancelFallsBack(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	works := make([]int64, 400)
	for i := range works {
		works[i] = int64(i%37) + 1
	}
	in := instance.NewUnit(works)
	r := Uncapacitated(in, Limits{Ctx: ctx})
	if r.Exact || r.Method != "lb-fallback" {
		t.Errorf("cancelled context still solved: %+v", r)
	}
	if r.Length != lb.Best(in) {
		t.Errorf("fallback length %d != LB %d", r.Length, lb.Best(in))
	}
	if r2 := Capacitated(instance.NewUnit([]int64{9, 0, 0, 0, 0}), Limits{Ctx: ctx}); r2.Exact {
		t.Errorf("cancelled capacitated still solved: %+v", r2)
	}
}

func TestSolverCountersAdvance(t *testing.T) {
	before := metrics.Solver.Snapshot()
	works := []int64{8, 8, 0, 0, 0, 0, 0, 0, 0, 0}
	r := Uncapacitated(instance.NewUnit(works), Limits{})
	if !r.Exact {
		t.Fatalf("not exact: %+v", r)
	}
	d := metrics.Solver.Snapshot().Sub(before)
	if d.Get(metrics.SolverProbe) < 1 || d.Get(metrics.SolverWarmReuse) < 1 || d.Get(metrics.SolverColdBuild) < 1 {
		t.Errorf("counters did not advance: %v", d.Map())
	}
	if int(d.Get(metrics.SolverProbe)) != r.FlowCalls {
		t.Errorf("probes %d != FlowCalls %d", d.Get(metrics.SolverProbe), r.FlowCalls)
	}

	before = metrics.Solver.Snapshot()
	r = Uncapacitated(instance.NewUnit(works), Limits{NoWarmStart: true})
	d = metrics.Solver.Snapshot().Sub(before)
	if d.Get(metrics.SolverWarmReuse) != 0 {
		t.Errorf("cold run reused a warm network: %v", d.Map())
	}
	if d.Get(metrics.SolverColdBuild) < int64(r.FlowCalls) {
		t.Errorf("cold run built %d networks for %d probes", d.Get(metrics.SolverColdBuild), r.FlowCalls)
	}
}

func TestWarmNetworkDeepensBeyondHint(t *testing.T) {
	// A hint of 2 builds a shallow staircase; the search must then probe
	// above it (the hint is infeasible) and deepen the network without
	// losing exactness.
	works := make([]int64, 200)
	works[0] = 400
	works[100] = 1
	in := instance.NewUnit(works)
	r := Uncapacitated(in, Limits{UpperHint: 2})
	if r.Length != 20 || !r.Exact {
		t.Errorf("shallow hint: %+v, want 20 exact", r)
	}
}
