package experiment

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ringsched/internal/instance"
	"ringsched/internal/opt"
	"ringsched/internal/workload"
)

// smallSuite picks quick-to-solve cases covering all three groups.
func smallSuite(t *testing.T) []workload.Case {
	t.Helper()
	ids := []string{
		"I-m10-point-big", "I-m10-region-big", "I-m100-point-big",
		"II-m10-rand100", "II-m100-rand100",
		"III-m100-L10",
	}
	var cases []workload.Case
	for _, id := range ids {
		c, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	return cases
}

func TestRunSuiteSmall(t *testing.T) {
	cases := smallSuite(t)
	var progressLines int
	rep, err := RunSuite(cases, Options{
		Progress: func(string) { progressLines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != len(cases) {
		t.Fatalf("got %d case results", len(rep.Cases))
	}
	if progressLines != len(cases) {
		t.Errorf("progress lines = %d, want %d", progressLines, len(cases))
	}
	if len(rep.Algorithms) != 6 {
		t.Errorf("algorithms = %v", rep.Algorithms)
	}
	for _, cr := range rep.Cases {
		if !cr.Opt.Exact {
			t.Errorf("case %s not solved exactly", cr.ID)
		}
		for alg, run := range cr.Runs {
			if run.Factor < 1.0-1e-9 {
				t.Errorf("case %s alg %s factor %.3f < 1: algorithm beat the optimum",
					cr.ID, alg, run.Factor)
			}
			if run.Factor > 5.3 {
				t.Errorf("case %s alg %s factor %.3f breaks the 4.22/5.22 regime",
					cr.ID, alg, run.Factor)
			}
		}
	}
}

// TestRunSuiteCanceledContext: a canceled Options.Ctx makes every
// flow-solved case fall back to its certified lower bound, but the
// suite still returns a complete, well-formed report (the contract the
// serving layer's request deadlines rely on).
func TestRunSuiteCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// rand cases need real flow probes (no closed form), so a canceled
	// context demonstrably degrades them to the lower bound.
	var cases []workload.Case
	for _, id := range []string{"II-m10-rand100", "II-m100-rand100"} {
		c, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	rep, err := RunSuite(cases, Options{Ctx: ctx, Algorithms: []string{"A2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != len(cases) {
		t.Fatalf("got %d case results, want %d", len(rep.Cases), len(cases))
	}
	if rep.DeadlineHits != len(cases) {
		t.Errorf("DeadlineHits = %d, want %d (all cases degraded)", rep.DeadlineHits, len(cases))
	}
	for _, cr := range rep.Cases {
		if cr.Opt.Exact {
			t.Errorf("case %s solved exactly under a canceled context", cr.ID)
		}
		if cr.Opt.Length < 1 {
			t.Errorf("case %s lost its certified lower bound", cr.ID)
		}
	}
}

func TestRunSuiteSelectedAlgorithms(t *testing.T) {
	cases := smallSuite(t)[:2]
	rep, err := RunSuite(cases, Options{Algorithms: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Algorithms) != 1 || rep.Algorithms[0] != "C1" {
		t.Fatalf("algorithms = %v", rep.Algorithms)
	}
	if len(rep.Factors("C1", false)) != 2 {
		t.Error("missing factors")
	}
	if len(rep.Factors("A1", false)) != 0 {
		t.Error("unexpected factors for unrun algorithm")
	}
}

func TestRunSuiteRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := RunSuite(nil, Options{Algorithms: []string{"Z3"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestReportAccessors(t *testing.T) {
	cases := smallSuite(t)
	rep, err := RunSuite(cases, Options{Algorithms: []string{"A2", "C1"}})
	if err != nil {
		t.Fatal(err)
	}

	worst, id := rep.Worst("C1", false)
	if worst < 1 || id == "" {
		t.Errorf("Worst = %v, %q", worst, id)
	}
	h := rep.Histogram("C1")
	if h.Total() != len(cases) {
		t.Errorf("histogram total %d, want %d", h.Total(), len(cases))
	}

	figs := rep.RenderFigures()
	if !strings.Contains(figs, "Figure 4") || !strings.Contains(figs, "Figure 5") {
		t.Errorf("figures missing titles:\n%s", figs)
	}

	md := rep.Markdown()
	for _, want := range []string{"## Summary", "## Per-case results", "I-m10-point-big", "| A2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}

	best := rep.BestAlgorithm()
	if best != "A2" && best != "C1" {
		t.Errorf("best = %q", best)
	}
}

func TestFactorsExactOnly(t *testing.T) {
	// Force LB fallback with a tiny arc budget: factors should then be
	// excluded from the exact-only view.
	cases := smallSuite(t)[:1]
	rep, err := RunSuite(cases, Options{
		Algorithms: []string{"C1"},
		OptLimits:  opt.Limits{MaxArcs: 4, Deadline: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cases[0].Opt.Exact {
		t.Skip("case solved despite tiny budget")
	}
	if n := len(rep.Factors("C1", true)); n != 0 {
		t.Errorf("exact-only factors = %d, want 0", n)
	}
	if n := len(rep.Factors("C1", false)); n != 1 {
		t.Errorf("all factors = %d, want 1", n)
	}
}

func TestPaperHeadlinesOnSubSuite(t *testing.T) {
	// The full 51-case suite takes minutes (the optimum solver); the
	// repository-level reproduction lives in EXPERIMENTS.md and the
	// bench harness. Here, check the paper's qualitative headlines on
	// the fast subset: factors stay under C's 4.22 guarantee and A2
	// stays under the paper's empirical 1.65+slack.
	rep, err := RunSuite(smallSuite(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w, id := rep.Worst("C1", false); w > 4.22 {
		t.Errorf("C1 worst %.2f (%s) above the Theorem 1 guarantee", w, id)
	}
	if w, id := rep.Worst("A2", false); w > 1.9 {
		t.Errorf("A2 worst %.2f (%s) far above the paper's 1.65", w, id)
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := RunSuite(smallSuite(t)[:2], Options{Algorithms: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Algorithms []string `json:"algorithms"`
		Summary    map[string]struct {
			Worst float64 `json:"worst"`
		} `json:"summary"`
		Cases []struct {
			ID      string             `json:"id"`
			Factors map[string]float64 `json:"factors"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(decoded.Cases) != 2 || decoded.Summary["C1"].Worst < 1 {
		t.Errorf("decoded: %+v", decoded)
	}
	if decoded.Cases[0].Factors["C1"] < 1 {
		t.Errorf("factor missing: %+v", decoded.Cases[0])
	}
}

func TestCapStudy(t *testing.T) {
	cases, err := CapStudy(opt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 6 {
		t.Fatalf("study too small: %d cases", len(cases))
	}
	for _, c := range cases {
		if !c.Opt.Exact {
			t.Errorf("%s: capacitated optimum not exact", c.ID)
			continue
		}
		if c.Makespan > 2*c.Opt.Length+2 {
			t.Errorf("%s: Theorem 3 violated: %d > 2*%d+2", c.ID, c.Makespan, c.Opt.Length)
		}
		if c.Makespan > c.NoPass {
			t.Errorf("%s: Lemma 12 violated: %d > %d", c.ID, c.Makespan, c.NoPass)
		}
	}
	table := RenderCapStudy(cases)
	if !strings.Contains(table, "cap-pile-240") || !strings.Contains(table, "2L+2 holds") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestRunSuiteUnderFaults(t *testing.T) {
	cases := smallSuite(t)[:2]
	rep, err := RunSuite(cases, Options{
		Algorithms: []string{"A1", "C1"},
		Faults:     "11:loss=0.1,dup=0.05,crashes=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs := rep.RunErrors(); len(errs) != 0 {
		t.Fatalf("unexpected run errors: %v", errs)
	}
	if rep.Suite.Faults == "" {
		t.Error("SuiteInfo.Faults not recorded")
	}
	for _, cr := range rep.Cases {
		for alg, run := range cr.Runs {
			if run.Faults == nil {
				t.Fatalf("case %s alg %s: no fault report", cr.ID, alg)
			}
			if run.Faults.Crashes != 2 {
				t.Errorf("case %s alg %s: crashes = %d, want 2", cr.ID, alg, run.Faults.Crashes)
			}
			if run.Factor < 1.0-1e-9 {
				t.Errorf("case %s alg %s: faulty factor %.3f < 1", cr.ID, alg, run.Factor)
			}
		}
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"faults"`, `"crashes": 2`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report JSON missing %s", want)
		}
	}
}

func TestRunSuiteRejectsBadFaultSpec(t *testing.T) {
	if _, err := RunSuite(nil, Options{Faults: "1:loss=0.9"}); err == nil {
		t.Error("out-of-range loss accepted")
	}
	if _, err := RunSuite(nil, Options{Faults: "nonsense"}); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestRunSuiteFaultBindErrorPerCase(t *testing.T) {
	// crashes=2 needs m >= 8 (crash budget m/4); a 4-ring case cannot
	// bind the plane, which must surface as a per-run error — reported,
	// rendered, and countable — without aborting the suite.
	cases := []workload.Case{{
		ID:    "tiny-m4",
		Group: "structured",
		In:    instance.NewUnit([]int64{20, 0, 0, 0}),
	}}
	rep, err := RunSuite(cases, Options{
		Algorithms: []string{"A1"},
		Faults:     "11:crashes=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	run := rep.Cases[0].Runs["A1"]
	if run.Err == "" {
		t.Fatal("bind failure not recorded as run error")
	}
	errs := rep.RunErrors()
	if len(errs) != 1 || !strings.Contains(errs[0], "tiny-m4/A1") {
		t.Errorf("RunErrors = %v", errs)
	}
	if md := rep.Markdown(); !strings.Contains(md, " ERR |") || !strings.Contains(md, "## Errored runs") {
		t.Errorf("markdown does not surface the error:\n%s", md)
	}
	if len(rep.Factors("A1", false)) != 0 {
		t.Error("errored run leaked into the factor sample")
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"err"`) {
		t.Error("report JSON missing err field")
	}
}

// TestRunSuiteEngine pins Options.Engine against the registry: the
// huge-ring engine reproduces the pool engine's runs, options it cannot
// honor for any case fail the suite up front, and a sized case it cannot
// run is a per-run error while the pool engine runs it and scores it
// against the certified bound.
func TestRunSuiteEngine(t *testing.T) {
	cases := smallSuite(t)[:3]
	pool, err := RunSuite(cases, Options{Algorithms: []string{"C1", "A2"}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunSuite(cases, Options{Algorithms: []string{"C1", "A2"}, Engine: "bigring"})
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range pool.Cases {
		for name, want := range cr.Runs {
			got := big.Cases[i].Runs[name]
			if got.Err != "" || got.Makespan != want.Makespan || got.JobHops != want.JobHops || got.Messages != want.Messages {
				t.Errorf("case %s, %s: bigring %+v, pool %+v", cr.ID, name, got, want)
			}
		}
	}

	for _, o := range []Options{
		{Engine: "bigring", TraceOut: new(strings.Builder)},
		{Engine: "bigring", Faults: "7:loss=0.1"},
		{Engine: "warp"},
	} {
		o.Algorithms = []string{"C1"}
		if _, err := RunSuite(cases, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}

	sized := []workload.Case{{ID: "sized-m4", Group: "structured", In: instance.NewSized([][]int64{{2, 3}, nil, nil, {1}})}}
	rep, err := RunSuite(sized, Options{Algorithms: []string{"C1"}, Engine: "bigring"})
	if err != nil {
		t.Fatal(err)
	}
	if run := rep.Cases[0].Runs["C1"]; run.Err == "" {
		t.Errorf("sized case on bigring ran: %+v", run)
	}
	rep, err = RunSuite(sized, Options{Algorithms: []string{"C1"}})
	if err != nil {
		t.Fatal(err)
	}
	if cr := rep.Cases[0]; cr.Runs["C1"].Err != "" || cr.Opt.Exact || cr.Opt.Length < 3 {
		t.Errorf("sized case on pool: %+v, opt %+v", cr.Runs["C1"], cr.Opt)
	}
}
