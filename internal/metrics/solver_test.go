package metrics

import (
	"sync"
	"testing"
)

func TestSolverStatsCountsConcurrently(t *testing.T) {
	s := NewCounters[SolverStat](solverRows[:])
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Inc(SolverProbe)
				s.Inc(SolverMemoHit)
				s.Inc(SolverWarmReuse)
				s.Inc(SolverColdBuild)
			}
		}()
	}
	wg.Wait()
	got := s.Snapshot()
	want := int64(workers * perWorker)
	for k := range solverRows {
		if v := got.Get(SolverStat(k)); v != want {
			t.Errorf("%s = %d, want %d", solverRows[k].Key, v, want)
		}
	}
}

func TestSolverSnapshotSub(t *testing.T) {
	s := NewCounters[SolverStat](solverRows[:])
	s.Inc(SolverProbe)
	s.Inc(SolverColdBuild)
	before := s.Snapshot()
	s.Inc(SolverProbe)
	s.Inc(SolverProbe)
	s.Inc(SolverMemoHit)
	s.Inc(SolverWarmReuse)
	d := s.Snapshot().Sub(before)
	want := map[string]int64{"probes": 2, "memoHits": 1, "warmReuses": 1, "coldBuilds": 0}
	got := d.Map()
	if len(got) != len(want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("delta = %v, want %v", got, want)
		}
	}
}
