package engine

import (
	"context"
	"errors"
	"sort"
	"testing"

	"ringsched/internal/instance"
	"ringsched/internal/sim"
)

// TestResolve pins the routing rule every consumer shares: auto picks the
// huge-ring engine only at or above a positive threshold and only on its
// domain; a named engine must cover the shape; online runs on the online
// engine; anything no engine covers is an ErrUnsupported refusal.
func TestResolve(t *testing.T) {
	bucket := Shape{Algorithm: "C1", M: 100, Unit: true}
	huge := Shape{Algorithm: "C1", M: 1000, Unit: true}
	sized := Shape{Algorithm: "C1", M: 1000}
	for _, tc := range []struct {
		name      string
		engine    string
		sh        Shape
		threshold int
		want      string // "" means refused
	}{
		{"auto small", "", bucket, 1000, "pool"},
		{"auto at threshold", "auto", huge, 1000, "bigring"},
		{"auto threshold disabled", "", huge, 0, "pool"},
		{"auto negative threshold", "", huge, -1, "pool"},
		{"auto sized huge ring", "", sized, 1000, "pool"},
		{"auto faults on huge ring", "", Shape{Algorithm: "A2", M: 1000, Unit: true, Faults: true}, 1000, "pool"},
		{"auto trace on huge ring", "", Shape{Algorithm: "A2", M: 1000, Unit: true, Trace: true}, 1000, "pool"},
		{"auto cap on huge ring", "", Shape{Algorithm: "cap", M: 1000, Unit: true}, 1000, "pool"},
		{"auto online", "", Shape{Algorithm: "online", M: 1000, Unit: true, Arrivals: true}, 1000, "online"},
		{"named pool above threshold", "pool", huge, 1000, "pool"},
		{"named bigring below threshold", "bigring", bucket, 1000, "bigring"},
		{"named online", "online", Shape{Algorithm: "online", Unit: true}, 0, "online"},
		{"bigring sized", "bigring", sized, 0, ""},
		{"bigring cap", "bigring", Shape{Algorithm: "cap", Unit: true}, 0, ""},
		{"bigring faults", "bigring", Shape{Algorithm: "C1", Unit: true, Faults: true}, 0, ""},
		{"bigring trace", "bigring", Shape{Algorithm: "C1", Unit: true, Trace: true}, 0, ""},
		{"pool online", "pool", Shape{Algorithm: "online", Unit: true}, 0, ""},
		{"online bucket", "online", bucket, 0, ""},
		{"arrivals on a bucket algorithm", "", Shape{Algorithm: "C1", Unit: true, Arrivals: true}, 0, ""},
		{"online sized", "", Shape{Algorithm: "online"}, 0, ""},
		{"cap sized", "", Shape{Algorithm: "cap"}, 0, ""},
		{"unknown algorithm", "", Shape{Algorithm: "Z9", Unit: true}, 0, ""},
		{"unknown engine", "warp", bucket, 0, ""},
	} {
		e, err := Resolve(tc.engine, tc.sh, tc.threshold)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%s: resolved %s, want a refusal", tc.name, e.Name)
		case tc.want == "" && !errors.Is(err, ErrUnsupported):
			t.Errorf("%s: error %v does not wrap ErrUnsupported", tc.name, err)
		case tc.want != "" && err != nil:
			t.Errorf("%s: %v, want %s", tc.name, err, tc.want)
		case tc.want != "" && e.Name != tc.want:
			t.Errorf("%s: resolved %s, want %s", tc.name, e.Name, tc.want)
		}
	}
}

// TestRegistryShape pins what the consumers index by: All in name order
// (the order engine-labeled metric families render in), Index matching
// the position, lookups by name and endpoint, and every algorithm run by
// exactly one non-huge engine, so auto routing is never ambiguous.
func TestRegistryShape(t *testing.T) {
	if !sort.SliceIsSorted(All[:], func(i, j int) bool { return All[i].Name < All[j].Name }) {
		t.Errorf("All is not in name order: %s", Names())
	}
	for i := range All {
		e := &All[i]
		if e.Index() != i || Lookup(e.Name) != e {
			t.Errorf("engine %s: index %d at position %d", e.Name, e.Index(), i)
		}
	}
	if Lookup("dist") != nil {
		t.Error("the goroutine runtime is not a serving engine")
	}
	for _, ep := range []string{"/v1/schedule", "/v1/optimal", "/v1/compare", "/v1/session"} {
		if Serving(ep) == nil {
			t.Errorf("no engine serves %s", ep)
		}
	}
	for _, a := range Algorithms {
		general := 0
		for i := range All {
			if !All[i].Huge && All[i].Supports(Shape{Algorithm: a.Name, Unit: true, Arrivals: a.Kind == "online"}) == nil {
				general++
			}
		}
		if general != 1 {
			t.Errorf("algorithm %s runs on %d non-huge engines, want 1", a.Name, general)
		}
	}
}

// TestStaticRunsAgree runs every static algorithm through Static and
// every static engine whose domain covers it: the bit-identity contract
// that makes the routing rule pure policy.
func TestStaticRunsAgree(t *testing.T) {
	in := instance.NewUnit([]int64{0, 0, 0, 0, 0, 0, 0, 29, 4, 34, 0})
	for _, a := range Algorithms {
		if a.Kind == "online" {
			continue
		}
		var first *sim.Result
		for i := range All {
			e := &All[i]
			if e.Run == nil || e.Supports(Shape{Algorithm: a.Name, M: in.M, Unit: true}) != nil {
				continue
			}
			alg, opts, err := Static(a.Name)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			res, err := e.Run(in, alg, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, e.Name, err)
			}
			if first == nil {
				first = &res
			} else if res.Makespan != first.Makespan || res.Steps != first.Steps || res.JobHops != first.JobHops || res.Messages != first.Messages {
				t.Errorf("%s on %s: %+v, want %+v", a.Name, e.Name, res, *first)
			}
		}
		if first == nil {
			t.Errorf("algorithm %s has no static engine", a.Name)
		}
	}
	if _, _, err := Static("online"); err == nil {
		t.Error("Static accepted the online algorithm")
	}
}

// TestRunStopsWithItsContext runs every engine with a Run on a ring that
// needs many steps under an already-canceled context: each must stop
// with an error that wraps both sim.ErrCanceled and the context's own
// error, as sim.Run does.
func TestRunStopsWithItsContext(t *testing.T) {
	works := make([]int64, 1000)
	works[0] = 100_000
	in := instance.NewUnit(works)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range All {
		e := &All[i]
		if e.Run == nil {
			continue
		}
		alg, opts, err := Static("A1")
		if err != nil {
			t.Fatal(err)
		}
		opts.Ctx = ctx
		_, err = e.Run(in, alg, opts)
		if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want sim.ErrCanceled wrapping context.Canceled", e.Name, err)
		}
	}
}
