// Command e2ebench is the repository's end-to-end benchmark. It drives
// the commit's own ringserve daemon, started as a separate process with
// production defaults, from this single closed-loop load generator, and
// prints one JSON result line. See README.md.
//
//	e2ebench --workload hot --seed 1 --seconds 15 --trace 0 \
//	    --daemon .bench_build/bin/ringserve --workdir .bench_build
//
// With --trace 0 it reports the end-to-end metrics of one workload; with
// --trace 1 the per-layer metrics of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: hot, cold, huge or stream")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	daemonBin := fs.String("daemon", filepath.Join(".bench_build", "bin", "ringserve"), "ringserve binary to benchmark")
	workDir := fs.String("workdir", ".bench_build", "directory for access logs")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: want --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b, err := newBench(*name, *seed, *seconds)
	if err == nil {
		var res result
		var diag map[string]any
		window := time.Duration(*seconds) * time.Second
		if *trace == 1 {
			res, diag, err = runTraced(b, *seed, *daemonBin, *workDir, window)
		} else {
			res, diag, err = runUntraced(b, *daemonBin, window)
		}
		if err == nil {
			diag["workload"], diag["seed"], diag["seconds"], diag["conns"] = *name, *seed, *seconds, b.conns
			diag["env"] = map[string]any{"numCPU": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "goVersion": runtime.Version()}
			report(res, diag)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	os.Exit(1)
}

// report prints a readable summary to stderr, then the diagnostics and
// the result as the last two lines of stdout.
func report(res result, diag map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "e2ebench %v: correct=%t attempted=%d failed=%d\n", diag["workload"], res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	d, _ := json.Marshal(map[string]any{"diagnostics": diag})
	r, _ := json.Marshal(res)
	fmt.Printf("%s\n%s\n", d, r)
}

// setup starts a daemon and serves the workload's warm set on it; the
// time from exec until the last warm reply is the set-up time.
func (b *bench) setup(bin string, extra ...string) (*daemon, time.Duration, tally, error) {
	start := time.Now()
	d, err := startDaemon(bin, extra...)
	if err != nil {
		return nil, 0, tally{}, err
	}
	b.resetDaemonState()
	ph := &phase{client: newClient(b.conns), base: d.base, tag: "w-"}
	t, err := ph.loop(b.conns, b.warmCount(), b.warmUnit)
	elapsed := time.Since(start)
	ph.client.CloseIdleConnections()
	if err != nil {
		d.stop()
		return nil, 0, t, err
	}
	b.checkWarmRepeat(&t)
	return d, elapsed, t, nil
}

// window is one timed closed loop and what /proc saw meanwhile.
type window struct {
	t                    tally
	start                time.Time
	serverCPU, clientCPU time.Duration
	steal                int64
}

func (b *bench) measure(d *daemon, dur time.Duration) (window, error) {
	ph := &phase{client: newClient(b.conns), base: d.base, tag: "t-"}
	defer ph.client.CloseIdleConnections()
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return window{}, err
	}
	steal0, err := stealTicks()
	if err != nil {
		return window{}, err
	}
	self0 := selfCPU()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(dur)
	type loopResult struct {
		t   tally
		err error
	}
	done := make(chan loopResult, 1)
	go func() {
		t, err := ph.loop(b.conns, -1, b.timedUnit)
		done <- loopResult{t, err}
	}()
	time.Sleep(time.Until(ph.deadline))
	cpu1, cpuErr := procCPU(d.pid())
	steal1, stealErr := stealTicks()
	self1 := selfCPU()
	lr := <-done
	if lr.err != nil {
		return window{}, lr.err
	}
	if cpuErr != nil || stealErr != nil {
		return window{}, fmt.Errorf("reading /proc: %v %v", cpuErr, stealErr)
	}
	return window{t: lr.t, start: ph.start, serverCPU: cpu1 - cpu0, clientCPU: self1 - self0, steal: steal1 - steal0}, nil
}

// endToEnd turns a window into the end-to-end metrics.
func (b *bench) endToEnd(w window, diag map[string]any) map[string]metric {
	lat := slices.Clone(w.t.lat)
	slices.Sort(lat)
	tailV, pct, beyond := tail(lat, b.tailTop)
	per := func(d time.Duration) float64 { return ms(d) / float64(max(w.t.done, 1)) }
	diag["samples"], diag["tailPercentile"], diag["tailBeyond"] = len(lat), pct, beyond
	diag["stealTicks"], diag["loadgenCpuMsPerReq"] = w.steal, per(w.clientCPU)
	// Throughput counts completions up to the last one in the window, so
	// it is not quantized by the window's length.
	rate := 0.0
	if w.t.done > 0 {
		rate = float64(w.t.done) / w.t.last.Sub(w.start).Seconds()
	}
	return map[string]metric{
		"throughput_rps":  {rate, "1/s"},
		"latency_p50_ms":  {ms(median(lat)), "ms"},
		"latency_tail_ms": {ms(tailV), "ms"},
		"cpu_ms_per_req":  {per(w.serverCPU), "ms"},
	}
}

func finish(t tally, m map[string]metric, diag map[string]any) result {
	if len(t.errs) > 0 {
		diag["errors"] = t.errs
		fmt.Fprintf(os.Stderr, "e2ebench: failures:\n  %s\n", strings.Join(t.errs, "\n  "))
	}
	return result{Correct: t.failed == 0 && t.done > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// runUntraced measures the end-to-end metrics: set-up several times and
// keep the last daemon for the timed window, then check a prefix of the
// computed answers against the engines in process.
func runUntraced(b *bench, bin string, dur time.Duration) (result, map[string]any, error) {
	var total tally
	var setups []float64
	var d *daemon
	for k := 0; k < setupsPerRun; k++ {
		dk, elapsed, t, err := b.setup(bin)
		total.add(t)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, elapsed.Seconds())
		if k < setupsPerRun-1 {
			if err := dk.stop(); err != nil {
				return result{}, nil, err
			}
		} else {
			d = dk
		}
	}
	w, err := b.measure(d, dur)
	rss, rssErr := procPeakRSSMB(d.pid())
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return result{}, nil, err
	}
	if rssErr != nil {
		return result{}, nil, rssErr
	}
	total.add(w.t)
	var check replay
	switch b.name {
	case "cold":
		check.cold, check.coldAnswers = poolInputs{timed: b.pool.timed[:min(verifyCold, len(b.pool.timed))]}, b.results
		err = check.poolEngine(map[string]float64{}, &total)
	case "huge":
		check.huge, check.hugeAnswers = poolInputs{timed: b.pool.timed[:min(verifyHuge, len(b.pool.timed))]}, b.results
		err = check.bigRing(map[string]float64{}, &total)
	}
	if err != nil {
		return result{}, nil, err
	}
	diag := map[string]any{"setupsS": setups, "serverRssPeakMb": rss}
	m := b.endToEnd(w, diag)
	m["setup_s"] = metric{median(setups), "s"}
	return finish(total, m, diag), diag, nil
}

// runTraced measures the per-layer metrics: an untraced and a traced
// daemon run of half the window each (their p50 difference is the
// tracing overhead), then the in-process replay of every layer.
func runTraced(b *bench, seed int64, bin, workDir string, dur time.Duration) (result, map[string]any, error) {
	half := dur / 2
	var total tally
	out := map[string]float64{}
	diag := map[string]any{}

	d, _, t, err := b.setup(bin)
	total.add(t)
	if err != nil {
		return result{}, nil, err
	}
	wA, err := b.measure(d, half)
	rss, rssErr := procPeakRSSMB(d.pid())
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = rssErr
	}
	if err != nil {
		return result{}, nil, err
	}
	total.add(wA.t)
	untraced := b.endToEnd(wA, diag)
	out["server.rss_peak_mb"] = rss
	out["loadgen.cpu_ms_per_req"] = ms(wA.clientCPU) / float64(max(wA.t.done, 1))

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, nil, err
	}
	logPath := filepath.Join(workDir, fmt.Sprintf("access-%d.jsonl", os.Getpid()))
	defer os.Remove(logPath)
	d, _, t, err = b.setup(bin, "-access-log", logPath)
	total.add(t)
	if err != nil {
		return result{}, nil, err
	}
	client := newClient(1)
	before, err := scrape(client, d.base)
	var wB window
	var after map[string]float64
	if err == nil {
		wB, err = b.measure(d, half)
	}
	if err == nil {
		after, err = scrape(client, d.base)
	}
	client.CloseIdleConnections()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = spanLayers(logPath, "t-", out)
	}
	if err != nil {
		return result{}, nil, err
	}
	total.add(wB.t)
	counterDeltas(before, after, out)
	traced := b.endToEnd(wB, map[string]any{})
	out["trace.overhead_pct"] = 100 * (traced["latency_p50_ms"].Value/untraced["latency_p50_ms"].Value - 1)

	r := newReplay(b, seed)
	for _, layer := range []func(map[string]float64, *tally) error{r.frontEnd, r.poolEngine, r.bigRing, r.onlineEngine} {
		if err := layer(out, &total); err != nil {
			return result{}, nil, err
		}
	}
	m := map[string]metric{}
	for k, v := range out {
		m[k] = metric{v, layerUnit(k)}
	}
	return finish(total, m, diag), diag, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "ns_per_proc_step"):
		return "ns"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	default:
		return "count"
	}
}
