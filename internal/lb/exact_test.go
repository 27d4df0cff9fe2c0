package lb

import (
	"fmt"
	"math/rand"
	"testing"

	"ringsched/internal/instance"
)

// windowBoundScan is the O(m²) all-windows Lemma 1 scan that WindowBound
// replaces: every start, every length, wrapping.
func windowBoundScan(works []int64) int64 {
	m := len(works)
	var best int64
	for i := 0; i < m; i++ {
		var S int64
		for k := 1; k <= m; k++ {
			S += works[(i+k-1)%m]
			best = max(best, windowLB(k, S))
		}
	}
	return best
}

// capWindowBoundScan is the O(m²) all-windows Lemma 10 scan that
// CapWindowBound replaces.
func capWindowBoundScan(works []int64) int64 {
	m := len(works)
	var best int64
	for i := 0; i < m; i++ {
		var S int64
		for k := 1; k <= m; k++ {
			S += works[(i+k-1)%m]
			d := int64(k + 2)
			best = max(best, (S+d-1)/d)
		}
	}
	return best
}

func checkAgainstScans(t *testing.T, works []int64) {
	t.Helper()
	l1, l10 := windowBoundScan(works), capWindowBoundScan(works)
	if got := WindowBound(works); got != l1 {
		t.Fatalf("WindowBound(%v) = %d, scan %d", works, got, l1)
	}
	if got := CapWindowBound(works); got != l10 {
		t.Fatalf("CapWindowBound(%v) = %d, scan %d", works, got, l10)
	}
	if p1, p10 := pileWindowBounds(works); p1 != l1 || p10 != l10 {
		t.Fatalf("pileWindowBounds(%v) = %d, %d, scans %d, %d", works, p1, p10, l1, l10)
	}
}

// TestWindowBoundsExhaustiveSmallRings compares both window bounds with
// the scans on every ring of m <= 7 processors holding 0..5 units each
// (335,922 vectors).
func TestWindowBoundsExhaustiveSmallRings(t *testing.T) {
	const top = 5
	vectors := 0
	for m := 1; m <= 7; m++ {
		works := make([]int64, m)
		for {
			checkAgainstScans(t, works)
			vectors++
			i := 0
			for ; i < m && works[i] == top; i++ {
				works[i] = 0
			}
			if i == m {
				break
			}
			works[i]++
		}
	}
	if vectors != 335_922 {
		t.Fatalf("checked %d vectors, want 335922", vectors)
	}
}

// TestWindowBoundsRandomRings compares both window bounds with the scans
// on seeded random rings of up to 80 processors: dense loads, sparse
// point loads, values up to 2^30, and piles summing to nearly
// instance.MaxTotalWork, where any m*c overflow would show.
func TestWindowBoundsRandomRings(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := []struct {
		name string
		fill func(works []int64)
	}{
		{"dense", func(w []int64) {
			top := int64(1) << rng.Intn(31)
			for i := range w {
				w[i] = rng.Int63n(top + 1)
			}
		}},
		{"points", func(w []int64) {
			for p := rng.Intn(4); p >= 0; p-- {
				w[rng.Intn(len(w))] = rng.Int63n(1<<30 + 1)
			}
		}},
		{"near-max", func(w []int64) {
			piles := 1 + rng.Intn(3)
			for p := 0; p < piles; p++ {
				w[rng.Intn(len(w))] += instance.MaxTotalWork/int64(piles) - rng.Int63n(1<<20)
			}
			if rng.Intn(2) == 0 {
				w[rng.Intn(len(w))] += rng.Int63n(1 << 10)
			}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 400; trial++ {
				works := make([]int64, 1+rng.Intn(80))
				sh.fill(works)
				checkAgainstScans(t, works)
			}
		})
	}
}

func TestWindowBoundsEmptyRing(t *testing.T) {
	for _, works := range [][]int64{nil, {0}, make([]int64, 9)} {
		if WindowBound(works) != 0 || CapWindowBound(works) != 0 {
			t.Fatalf("%v: bounds %d, %d, want 0", works, WindowBound(works), CapWindowBound(works))
		}
	}
}

var sinkBound int64

func BenchmarkWindowBound(b *testing.B) {
	for _, m := range []int{64, 1024, 2048, 16384, 100_000} {
		rng := rand.New(rand.NewSource(int64(m)))
		works := make([]int64, m)
		for i := range works {
			works[i] = rng.Int63n(100)
		}
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBound = WindowBound(works)
			}
		})
	}
}

// pileWindowBounds is an exact reference for rings whose load sits in a
// few piles: a best window starts and ends on a loaded processor (an
// empty end only lengthens it), so it enumerates the O(p²) windows
// between piles instead of all O(m²) windows.
func pileWindowBounds(works []int64) (lemma1, lemma10 int64) {
	m := len(works)
	var piles []int
	for i, x := range works {
		if x > 0 {
			piles = append(piles, i)
		}
	}
	for a := range piles {
		var S int64
		for h := 0; h < len(piles); h++ {
			b := piles[(a+h)%len(piles)]
			S += works[b]
			k := (b-piles[a]+m)%m + 1
			d := int64(k + 2)
			lemma1, lemma10 = max(lemma1, windowLB(k, S)), max(lemma10, (S+d-1)/d)
		}
	}
	return lemma1, lemma10
}

// TestWindowBoundsHugeSparseRings: rings of 2^16 to 2^18 processors with
// a few piles summing to nearly instance.MaxTotalWork, where m*c in the
// Lemma 10 search passes 2^63 many times over.
func TestWindowBoundsHugeSparseRings(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 12; trial++ {
		works := make([]int64, 1<<(16+rng.Intn(3)))
		piles := 1 + rng.Intn(4)
		for p := 0; p < piles; p++ {
			works[rng.Intn(len(works))] += instance.MaxTotalWork/int64(piles) - rng.Int63n(1<<30)
		}
		lemma1, lemma10 := pileWindowBounds(works)
		if got := WindowBound(works); got != lemma1 {
			t.Fatalf("trial %d (m=%d, %d piles): WindowBound = %d, want %d", trial, len(works), piles, got, lemma1)
		}
		if got := CapWindowBound(works); got != lemma10 {
			t.Fatalf("trial %d (m=%d, %d piles): CapWindowBound = %d, want %d", trial, len(works), piles, got, lemma10)
		}
	}
}
