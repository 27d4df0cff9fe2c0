package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringsched/internal/engine"
	"ringsched/internal/experiment"
	"ringsched/internal/instance"
	"ringsched/internal/serve"
	"ringsched/internal/workload"
)

// TestEngineRuleAgreesAcrossConsumers runs one table of engine names
// (every registry entry, auto and an unknown name) × request shapes
// through each consumer that can express the shape: ringserve's
// /v1/schedule (no faults or traces), this command's -engine (no online
// algorithm or arrivals) and the experiment suite's Options.Engine
// (bucket algorithms without arrivals). Each must accept exactly what
// engine.Resolve accepts.
func TestEngineRuleAgreesAcrossConsumers(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	t.Cleanup(srv.Close)
	instances := map[bool]instance.Instance{
		true:  instance.NewUnit([]int64{9, 0, 0, 3}),
		false: instance.NewSized([][]int64{{2, 3}, nil, nil, {1}}),
	}
	dir := t.TempDir()
	files := map[bool]string{}
	for unit, in := range instances {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		files[unit] = filepath.Join(dir, fmt.Sprintf("unit-%t.json", unit))
		if err := os.WriteFile(files[unit], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	names := []string{"", "warp"}
	for i := range engine.All {
		names = append(names, engine.All[i].Name)
	}
	for _, name := range names {
		for _, alg := range []string{"C1", "A2", "cap", "online"} {
			for _, unit := range []bool{true, false} {
				for _, extra := range []string{"", "arrivals", "faults", "trace"} {
					sh := engine.Shape{Algorithm: alg, M: 4, Unit: unit,
						Arrivals: extra == "arrivals", Faults: extra == "faults", Trace: extra == "trace"}
					_, err := engine.Resolve(name, sh, 0)
					want := err == nil
					label := fmt.Sprintf("engine=%q alg=%s unit=%t %s", name, alg, unit, extra)

					if !sh.Faults && !sh.Trace {
						if got := serveAccepts(t, srv, instances[unit], alg, name, sh.Arrivals); got != want {
							t.Errorf("%s: serve accepts=%t, registry %t (%v)", label, got, want, err)
						}
					}
					// The command refuses faults on cap for the algorithm's
					// sake, whatever the engine; that is not an engine rule.
					if alg != "online" && !sh.Arrivals && !(alg == "cap" && sh.Faults) {
						if got := cliAccepts(files[unit], alg, name, extra, dir); got != want {
							t.Errorf("%s: ringsched accepts=%t, registry %t (%v)", label, got, want, err)
						}
					}
					if alg != "cap" && alg != "online" && !sh.Arrivals {
						if got := suiteAccepts(t, instances[unit], alg, name, sh); got != want {
							t.Errorf("%s: suite accepts=%t, registry %t (%v)", label, got, want, err)
						}
					}
				}
			}
		}
	}
}

// serveAccepts posts one schedule request and reports 200 (accepted) or
// 400 (refused); any other status fails the test.
func serveAccepts(t *testing.T, srv *serve.Server, in instance.Instance, alg, name string, arrivals bool) bool {
	t.Helper()
	req := serve.ScheduleRequest{Instance: in, Algorithm: alg, Options: serve.RequestOptions{Engine: name}}
	if arrivals {
		req.Arrivals = []serve.ArrivalBatch{{T: 2, Proc: 1, Count: 3}}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(b)))
	switch w.Code {
	case http.StatusOK:
		return true
	case http.StatusBadRequest:
		return false
	}
	t.Fatalf("serve %s on %q: status %d, body %s", alg, name, w.Code, w.Body)
	return false
}

// cliAccepts runs this command on the instance file and reports whether
// it succeeded.
func cliAccepts(file, alg, name, extra, dir string) bool {
	args := []string{"-in", file, "-alg", alg, "-engine", name}
	switch extra {
	case "faults":
		args = append(args, "-faults", "7:loss=0.1")
	case "trace":
		args = append(args, "-trace-out", filepath.Join(dir, "trace.jsonl"))
	}
	return run(args, io.Discard, io.Discard) == nil
}

// suiteAccepts runs a one-case suite and reports whether its one run
// succeeded (a refusal is either a suite error or a per-run error).
func suiteAccepts(t *testing.T, in instance.Instance, alg, name string, sh engine.Shape) bool {
	t.Helper()
	o := experiment.Options{Algorithms: []string{alg}, Engine: name, Workers: 1}
	if sh.Faults {
		o.Faults = "7:loss=0.1"
	}
	if sh.Trace {
		o.TraceOut = io.Discard
	}
	rep, err := experiment.RunSuite([]workload.Case{{ID: "table", Group: "structured", In: in}}, o)
	if err != nil {
		return false
	}
	run := rep.Cases[0].Runs[alg]
	if run.Err != "" && !strings.Contains(run.Err, engine.ErrUnsupported.Error()) {
		t.Fatalf("suite %s on %q: unexpected run error %s", alg, name, run.Err)
	}
	return run.Err == ""
}

// TestEngineRefusals pins the -engine bigring refusals by message: every
// feature the huge-ring engine cannot reproduce exactly is refused up
// front, as are -distributed (which runs the goroutine runtime in place
// of the default engine) and unknown engine names.
func TestEngineRefusals(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "bigring", "-alg", "cap"}, `engine "bigring" runs only`},
		{[]string{"-engine", "bigring", "-faults", "7:loss=0.1"}, `engine "bigring" runs only`},
		{[]string{"-engine", "bigring", "-gantt"}, `engine "bigring" runs only`},
		{[]string{"-engine", "bigring", "-trace-out", trace}, `engine "bigring" runs only`},
		{[]string{"-engine", "bigring", "-distributed"}, "incompatible with -distributed"},
		{[]string{"-engine", "warp"}, `unknown engine "warp"`},
	} {
		args := append([]string{"-loads", "9,0,0,3"}, tc.args...)
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", args, err, tc.want)
		}
	}
	// The refused features all run on the default engine.
	out := runOK(t, "-loads", "9,0,0,3", "-alg", "C1", "-engine", "bigring")
	if !strings.Contains(out, "C1: makespan=") {
		t.Errorf("bigring run output: %s", out)
	}
}
