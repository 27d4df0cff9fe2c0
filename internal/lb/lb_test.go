package lb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ringsched/internal/instance"
)

func TestWindowLBExactness(t *testing.T) {
	// windowLB(k,S) must be the minimal integer L with L^2+(k-1)L >= S.
	for k := 1; k <= 6; k++ {
		for S := int64(0); S <= 200; S++ {
			L := windowLB(k, S)
			if L*L+int64(k-1)*L < S {
				t.Fatalf("k=%d S=%d: L=%d does not satisfy the capacity inequality", k, S, L)
			}
			if L > 0 {
				lp := L - 1
				if lp*lp+int64(k-1)*lp >= S {
					t.Fatalf("k=%d S=%d: L=%d is not minimal", k, S, L)
				}
			}
		}
	}
}

func TestWindowLBLargeValues(t *testing.T) {
	// Exercise the float fix-up path with values near the paper's largest
	// cases (10^8 total work) and beyond.
	for _, S := range []int64{1e6, 1e8, 1e12, 1e15} {
		for _, k := range []int{1, 2, 1000} {
			L := windowLB(k, S)
			if L*L+int64(k-1)*L < S {
				t.Errorf("k=%d S=%d: bound %d infeasible", k, S, L)
			}
			lp := L - 1
			if lp >= 0 && lp*lp+int64(k-1)*lp >= S {
				t.Errorf("k=%d S=%d: bound %d not tight", k, S, L)
			}
		}
	}
}

func TestWindowBoundSinglePile(t *testing.T) {
	// One pile of W jobs: best window is k=1, L = ceil(sqrt(W)).
	works := make([]int64, 100)
	works[17] = 100
	if got := WindowBound(works); got != 10 {
		t.Errorf("WindowBound(single pile of 100) = %d, want 10", got)
	}
	works[17] = 101
	if got := WindowBound(works); got != 11 {
		t.Errorf("WindowBound(single pile of 101) = %d, want 11", got)
	}
}

func TestWindowBoundAtAgainstWindowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	works := make([]int64, 23)
	for i := range works {
		works[i] = int64(rng.Intn(40))
	}
	var best int64
	for i := 0; i < len(works); i++ {
		for k := 1; k <= len(works); k++ {
			if b := WindowBoundAt(works, i, k); b > best {
				best = b
			}
		}
	}
	if got := WindowBound(works); got != best {
		t.Errorf("WindowBound = %d, exhaustive max = %d", got, best)
	}
}

func TestWindowBoundWrapsAroundRing(t *testing.T) {
	// Heavy load split across the index-0 boundary; the certifying window
	// wraps.
	works := []int64{50, 0, 0, 0, 0, 0, 0, 50}
	wrapped := WindowBoundAt(works, 7, 2) // processors 7,0 hold 100
	if wrapped != windowLB(2, 100) {
		t.Fatalf("wrapped window bound = %d", wrapped)
	}
	if got := WindowBound(works); got < wrapped {
		t.Errorf("WindowBound = %d ignores wrapping window bound %d", got, wrapped)
	}
}

func TestWindowBoundPanicsOnBadWindow(t *testing.T) {
	works := []int64{1, 2, 3}
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WindowBoundAt k=%d did not panic", k)
				}
			}()
			WindowBoundAt(works, 0, k)
		}()
	}
}

func TestAverageBound(t *testing.T) {
	in := instance.NewUnit([]int64{5, 0, 0})
	if got := AverageBound(in); got != 2 {
		t.Errorf("AverageBound = %d, want 2", got)
	}
	if got := AverageBound(instance.Empty(3)); got != 0 {
		t.Errorf("AverageBound(empty) = %d, want 0", got)
	}
}

func TestPMaxBound(t *testing.T) {
	in := instance.NewSized([][]int64{{3, 9}, {2}})
	if got := PMaxBound(in); got != 9 {
		t.Errorf("PMaxBound = %d, want 9", got)
	}
}

func TestBestDominatesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		m := 2 + rng.Intn(10)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(100))
		}
		in := instance.NewUnit(works)
		b := Best(in)
		return b >= WindowBound(works) && b >= AverageBound(in) && b >= PMaxBound(in)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBestOnBigSinglePileBeatsAverage(t *testing.T) {
	// 100 jobs on one processor of a huge ring: average bound is 1 but the
	// window bound knows distance matters.
	works := make([]int64, 1000)
	works[0] = 100
	in := instance.NewUnit(works)
	if got := Best(in); got != 10 {
		t.Errorf("Best = %d, want 10", got)
	}
}

func TestCapWindowBound(t *testing.T) {
	// Two adjacent processors with 40 jobs: (2+2)L >= 40 -> L >= 10.
	works := []int64{20, 20, 0, 0, 0, 0}
	if got := CapWindowBoundAt(works, 0, 2); got != 10 {
		t.Errorf("CapWindowBoundAt = %d, want 10", got)
	}
	if got := CapWindowBound(works); got < 10 {
		t.Errorf("CapWindowBound = %d, want >= 10", got)
	}
}

func TestCapWindowBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CapWindowBoundAt([]int64{1}, 0, 2)
}

func TestCapacitatedDominatesUncapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(12)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(60))
		}
		in := instance.NewUnit(works)
		if Capacitated(in) < Best(in) {
			t.Fatalf("capacitated bound weaker than uncapacitated on %v", works)
		}
	}
}

func TestCapacitatedSinglePile(t *testing.T) {
	// One pile of x jobs, unit links: window k=1 gives ceil(x/3) (process 1,
	// ship 1 each way per step), much stronger than sqrt(x).
	works := make([]int64, 50)
	works[10] = 99
	in := instance.NewUnit(works)
	if got := Capacitated(in); got != 33 {
		t.Errorf("Capacitated = %d, want 33", got)
	}
}

func TestMaxWindowWork(t *testing.T) {
	// M_1 = L^2, M_k - M_{k-1} = L (Lemma 2 structure).
	for _, L := range []int64{1, 7, 100} {
		if MaxWindowWork(1, L) != L*L {
			t.Errorf("M_1(L=%d) = %d", L, MaxWindowWork(1, L))
		}
		for k := 2; k < 6; k++ {
			if MaxWindowWork(k, L)-MaxWindowWork(k-1, L) != L {
				t.Errorf("M_k increment wrong at k=%d L=%d", k, L)
			}
		}
	}
}

func TestMaxWindowWorkConsistentWithWindowLB(t *testing.T) {
	// An instance packing exactly M_k work into k processors certifies a
	// lower bound of exactly L (not more).
	for _, L := range []int64{3, 10, 25} {
		for k := 1; k <= 5; k++ {
			S := MaxWindowWork(k, L)
			if got := windowLB(k, S); got != L {
				t.Errorf("windowLB(k=%d, M_k(L=%d)=%d) = %d, want %d", k, L, S, got, L)
			}
		}
	}
}

func TestBestSparseDominatesComponents(t *testing.T) {
	in := instance.NewUnit([]int64{0, 900, 0, 0, 3, 0, 0, 0})
	b := BestSparse(in)
	if b < AverageBound(in) || b < PMaxBound(in) || b < WindowBound(in.Works()) {
		t.Fatalf("BestSparse %d below a component", b)
	}
	if b > Best(in) {
		t.Fatalf("BestSparse %d exceeds Best %d", b, Best(in))
	}
}
