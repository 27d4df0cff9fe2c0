package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"ringsched/internal/bigring"
	"ringsched/internal/bucket"
	"ringsched/internal/instance"
	"ringsched/internal/lb"
	"ringsched/internal/metrics"
	"ringsched/internal/online"
	"ringsched/internal/serve"
	"ringsched/internal/sim"
)

// The traced run measures layers from outside: it times calls into each
// module's exported functions on the workloads' exact inputs, and reads
// the daemon's own access-log span tree and /metrics counters.

// encodeReps repeats each json.Marshal so one timing covers more than the
// clock's granularity.
const encodeReps = 20

// replay holds every workload's replayed inputs: the benchmarked
// workload's own, and prefixes of the others generated from the same seed.
type replay struct {
	hot    hotInputs
	cold   poolInputs
	huge   poolInputs
	stream streamInputs
	// coldAnswers and hugeAnswers are the daemon's answers by timed index,
	// when the benchmarked workload is cold or huge.
	coldAnswers, hugeAnswers []schedResult
}

func newReplay(b *bench, seed int64) replay {
	r := replay{hot: b.hot, cold: b.pool, huge: b.pool, stream: b.stream}
	if b.name != "hot" {
		r.hot = genHot(seed, replayHot)
	}
	if b.name == "cold" {
		r.coldAnswers = b.results
	} else {
		r.cold = genPool(seed, "cold", coldWarm, coldCycle, coldRing)
	}
	if b.name == "huge" {
		r.hugeAnswers = b.results
	} else {
		r.huge = genPool(seed, "huge", hugeWarm, len(hugeCycle), hugeRing)
	}
	if b.name != "stream" {
		r.stream = genStream(seed, streamWarm, replayLifecycle)
	}
	return r
}

// decodeCanonical decodes a schedule body the way the daemon does and
// returns its canonical instance and algorithm spec.
func decodeCanonical(body []byte) (instance.Instance, bucket.Spec, error) {
	var req serve.ScheduleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return instance.Instance{}, bucket.Spec{}, err
	}
	spec, err := bucket.ByName(req.Algorithm)
	return req.Instance.Canonical(), spec, err
}

// compare fails t when an in-process result differs from the daemon's
// answer for the same request.
func compare(t *tally, what string, i int, answers []schedResult, res sim.Result) {
	if i >= len(answers) || !answers[i].set {
		return
	}
	a := answers[i]
	if a.makespan != res.Makespan || a.steps != res.Steps || a.jobHops != res.JobHops || a.messages != res.Messages {
		t.fail(fmt.Sprintf("%s request %d: daemon answered makespan/steps/hops/messages %d/%d/%d/%d, %s gives %d/%d/%d/%d",
			what, i, a.makespan, a.steps, a.jobHops, a.messages, what, res.Makespan, res.Steps, res.JobHops, res.Messages))
	}
}

// frontEnd times the hit path's layers on hot requests: decode,
// canonicalize, the whole handler in process, and the same handler
// behind loopback HTTP.
func (r replay) frontEnd(out map[string]float64, t *tally) error {
	n := min(replayHot, len(r.hot.timed))
	var dec, canon, handler, loop []time.Duration
	for _, q := range r.hot.timed[:n] {
		var req serve.ScheduleRequest
		start := time.Now()
		if err := json.Unmarshal(q.body, &req); err != nil {
			return err
		}
		dec = append(dec, time.Since(start))
		start = time.Now()
		_ = req.Instance.Canonical().Fingerprint()
		canon = append(canon, time.Since(start))
	}

	s := serve.New(serve.Config{})
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec
	}
	warm := make([][]byte, len(r.hot.warm))
	for i, q := range r.hot.warm {
		warm[i] = post(q.body).Body.Bytes()
	}
	gate := func(status int, cache string, body []byte, q request) error {
		if status != http.StatusOK || cache != "hit" || !bytes.Equal(body, warm[q.key]) {
			return fmt.Errorf("in-process hot request: status %d, cache %q, body equal %t", status, cache, bytes.Equal(body, warm[q.key]))
		}
		return nil
	}
	for _, q := range r.hot.timed[:n] {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(q.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		s.Handler().ServeHTTP(rec, req)
		handler = append(handler, time.Since(start))
		t.attempted++
		if err := gate(rec.Code, rec.Header().Get("X-Ringserve-Cache"), rec.Body.Bytes(), q); err != nil {
			t.fail(err.Error())
		}
	}

	ln, err := serve.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	ph := &phase{client: newClient(1), base: "http://" + ln.Addr().String(), tag: "r-"}
	w := &worker{ph: ph}
	for i, q := range r.hot.timed[:n] {
		start := time.Now()
		_, err := w.do(strconv.Itoa(i), op{method: http.MethodPost, path: "/v1/schedule", body: q.body, check: func(rep reply) error {
			return gate(rep.status, rep.cache, rep.body, q)
		}})
		if err == nil {
			loop = append(loop, time.Since(start))
		}
	}
	ph.client.CloseIdleConnections()
	cancel()
	if err := <-served; err != nil {
		return err
	}
	t.add(w.t)

	out["serve.decode_us"] = us(median(dec))
	out["instance.canonical_us"] = us(median(canon))
	out["serve.handler_us"] = us(median(handler))
	out["serve.http_us"] = us(median(loop) - median(handler))
	return nil
}

// poolEngine times the pool miss path's layers on one cycle of cold
// requests: sim.Run, lb.Best and encoding the answer.
func (r replay) poolEngine(out map[string]float64, t *tally) error {
	n := min(coldCycle, len(r.cold.timed))
	var run, bUniform, best, enc []time.Duration
	var steps, procSteps int64
	var simTotal time.Duration
	for i, q := range r.cold.timed[:n] {
		in, spec, err := decodeCanonical(q.body)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := sim.Run(in, spec, sim.Options{})
		d := time.Since(start)
		if err != nil {
			return err
		}
		run = append(run, d)
		simTotal += d
		steps += res.Steps
		procSteps += res.Steps * int64(in.M)
		if _, alg, shape := coldPlan(i); shape == 2 && alg[0] == 'B' {
			bUniform = append(bUniform, d)
		}
		t.attempted++
		compare(t, "sim.Run", i, r.coldAnswers, res)

		start = time.Now()
		low := lb.Best(in)
		best = append(best, time.Since(start))

		resp := serve.ScheduleResponse{Schema: serve.Schema, Fingerprint: q.fp, Algorithm: q.alg,
			Makespan: res.Makespan, Steps: res.Steps, JobHops: res.JobHops, Messages: res.Messages,
			LowerBound: low, Utilization: res.Utilization(), Engine: "pool"}
		start = time.Now()
		for k := 0; k < encodeReps; k++ {
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
		}
		enc = append(enc, time.Since(start)/encodeReps)
	}
	out["sim.run_ms"] = ms(median(run))
	out["sim.steps"] = float64(steps) / float64(n)
	out["sim.ns_per_proc_step"] = float64(simTotal) / float64(procSteps)
	out["sim.run_ms.b_uniform"] = ms(median(bUniform))
	out["lb.best_ms"] = ms(median(best))
	out["serve.encode_us"] = us(median(enc))
	return nil
}

// bigRing times the huge path's layers on one cycle of huge requests:
// decoding and canonicalizing 10^5-processor bodies, lb.BestSparse, and
// bigring.Run both at the daemon's worker count and sequentially.
func (r replay) bigRing(out map[string]float64, t *tally) error {
	n := min(len(hugeCycle), len(r.huge.timed))
	var dec, canon, sparse []time.Duration
	runs := map[string][]time.Duration{}
	steps := map[string][]float64{}
	for i, q := range r.huge.timed[:n] {
		var req serve.ScheduleRequest
		start := time.Now()
		if err := json.Unmarshal(q.body, &req); err != nil {
			return err
		}
		dec = append(dec, time.Since(start))
		start = time.Now()
		in := req.Instance.Canonical()
		_ = in.Fingerprint()
		canon = append(canon, time.Since(start))
		spec, err := bucket.ByName(req.Algorithm)
		if err != nil {
			return err
		}
		start = time.Now()
		_ = lb.BestSparse(in)
		sparse = append(sparse, time.Since(start))

		kind := "sparse"
		if q.dense {
			kind = "dense"
		}
		// Workers 0 is the daemon's default: span-parallel at GOMAXPROCS.
		for _, w := range []struct {
			suffix  string
			workers int
		}{{"", 0}, {".w1", 1}} {
			start = time.Now()
			res, err := bigring.Run(in, spec, bigring.Options{Workers: w.workers})
			d := time.Since(start)
			if err != nil {
				return err
			}
			runs[kind+w.suffix] = append(runs[kind+w.suffix], d)
			if w.workers == 0 {
				steps[kind] = append(steps[kind], float64(res.Steps))
			}
			t.attempted++
			compare(t, "bigring.Run"+w.suffix, i, r.hugeAnswers, res)
		}
	}
	out["serve.decode_us.huge"] = us(median(dec))
	out["instance.canonical_us.huge"] = us(median(canon))
	out["lb.best_sparse_ms"] = ms(median(sparse))
	for _, k := range []string{"dense", "sparse"} {
		out["bigring.run_ms."+k] = ms(mean(runs[k]))
		out["bigring.run_ms."+k+".w1"] = ms(mean(runs[k+".w1"]))
		var sum float64
		for _, s := range steps[k] {
			sum += s
		}
		out["bigring.steps."+k] = sum / float64(max(len(steps[k]), 1))
	}
	return nil
}

// onlineEngine times a session's engine calls on stream lifecycles:
// Append, StepQuiescent and the release-aware LowerBound, which is
// recomputed over the whole history on every append.
func (r replay) onlineEngine(out map[string]float64, t *tally) error {
	var appendD, step, bound, lastBound []time.Duration
	for _, lc := range r.stream.timed[:min(replayLifecycle, len(r.stream.timed))] {
		eng, err := online.NewEngine(streamM, online.Params{})
		if err != nil {
			return err
		}
		for k, body := range lc.waves {
			var req serve.SessionArrivalsRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			batches := make([]online.Batch, len(req.Arrivals))
			for j, a := range req.Arrivals {
				batches[j] = online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count}
			}
			start := time.Now()
			if err := eng.Append(batches...); err != nil {
				return err
			}
			appendD = append(appendD, time.Since(start))
			start = time.Now()
			if err := eng.StepQuiescent(nil); err != nil {
				return err
			}
			step = append(step, time.Since(start))
			start = time.Now()
			_ = eng.LowerBound()
			d := time.Since(start)
			bound = append(bound, d)
			if k == len(lc.waves)-1 {
				lastBound = append(lastBound, d)
			}
		}
		got := eng.Snapshot().Result
		t.attempted++
		if got.Makespan != lc.final.Makespan || got.Steps != lc.final.Steps || got.JobHops != lc.final.JobHops || got.MaxFlowTime != lc.final.MaxFlowTime {
			t.fail("online.Engine replay differs from the one-shot online run")
		}
	}
	out["online.append_us"] = us(median(appendD))
	out["online.step_us"] = us(median(step))
	out["online.lower_bound_us"] = us(median(bound))
	out["online.lower_bound_us.last_wave"] = us(median(lastBound))
	return nil
}

// spanLayers reads the daemon's access log and reports, per timed
// request, the mean self time of each layer of its span tree, the mean
// unspanned time (decode, admission, writing the reply) and the mean
// queue wait of the requests that queued.
func spanLayers(path, tag string, out map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	layers := []string{"canonicalize", "cache", "queue", "engine", "encode", "unspanned"}
	self := map[string]float64{}
	var records, queued int
	var total, queueWait float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec metrics.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		if !strings.HasPrefix(rec.ID, tag) {
			continue
		}
		records++
		total += float64(rec.DurUs)
		children := map[string]int64{}
		var roots int64
		for _, s := range rec.Spans {
			children[s.Parent] += s.DurUs
			if s.Parent == "" {
				roots += s.DurUs
			}
			if s.Name == "queue" {
				queued++
				queueWait += float64(s.DurUs)
			}
		}
		for _, s := range rec.Spans {
			layer := s.Name
			if layer == "compute" || strings.HasPrefix(layer, "engine") {
				layer = "engine"
			}
			self[layer] += float64(s.DurUs - children[s.Name])
		}
		self["unspanned"] += float64(rec.DurUs - roots)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if records == 0 {
		return fmt.Errorf("access log %s has no timed records", path)
	}
	for _, l := range layers {
		out["span."+l+"_us"] = self[l] / float64(records)
	}
	out["span.total_us"] = total / float64(records)
	out["serve.queue_wait_ms"] = 0
	if queued > 0 {
		out["serve.queue_wait_ms"] = queueWait / float64(queued) / 1000
	}
	return nil
}

// scrape reads the daemon's /metrics samples, keyed by name and labels.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// counterDeltas reports the window's cache hit ratio, rejections and
// computes by engine from two /metrics scrapes.
func counterDeltas(before, after map[string]float64, out map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	hits, misses := d("ringserve_cache_hits_total"), d("ringserve_cache_misses_total")
	out["serve.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		out["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	out["serve.rejected"] = d("ringserve_rejected_total")
	for _, e := range []string{"pool", "bigring", "online"} {
		out["serve.computes."+e] = d(`ringserve_computes_total{engine="` + e + `"}`)
	}
}
