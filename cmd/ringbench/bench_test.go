package main

import (
	"runtime"
	"testing"
	"time"
)

// TestBigStepReleasesItsSpans runs one bigring_step entry on a ring large
// enough to fork its spans and requires every goroutine it started to be
// gone afterwards. An entry that never closes its engine leaves the span
// workers parked, and they keep the engine's arenas reachable for the
// rest of the suite.
func TestBigStepReleasesItsSpans(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// One span never forks; two make the check mean something.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const name = "bigring_step/C1/m1e5"
	var entry *benchmark
	for _, b := range microSuite() {
		if b.name == name {
			entry = &b
		}
	}
	if entry == nil {
		t.Fatalf("no %s entry in the suite", name)
	}
	before := runtime.NumGoroutine()
	entry.run(time.Millisecond)
	// Closed workers unwind asynchronously; give the scheduler a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines after %s, %d before: its span workers outlived it", g, name, before)
	}
}
