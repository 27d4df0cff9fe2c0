package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"ringsched/internal/engine"
	"ringsched/internal/instance"
	"ringsched/internal/online"
	"ringsched/internal/workload"
)

// SelfTestOptions tune the built-in load generator.
type SelfTestOptions struct {
	// Requests is the total request count; 0 means 400.
	Requests int
	// Clients is the number of concurrent load goroutines; 0 means 8.
	Clients int
	// Seed seeds the zipf instance picker and the random rotations.
	Seed int64
	// HugeM, when positive, adds a huge-instance phase: a dense unit
	// ring of HugeM processors is scheduled through /v1/schedule and the
	// response must report the big-ring engine (the server's MaxM,
	// MaxTotalWork and BigRingThreshold are widened to admit it when
	// needed). This is the end-to-end proof that huge requests route to
	// the span-parallel backend.
	HugeM int
}

func (o SelfTestOptions) withDefaults() SelfTestOptions {
	if o.Requests <= 0 {
		o.Requests = 400
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	return o
}

// WidenForHuge returns c with the admission caps and the routing
// threshold raised, where needed, so a dense unit ring of m processors
// (a selftest's huge phase) is admissible and demonstrably
// bigring-routed; m <= 0 returns c unchanged.
func (c Config) WidenForHuge(m int) Config {
	if m <= 0 {
		return c
	}
	c = c.withDefaults()
	c.MaxM = max(c.MaxM, m)
	c.MaxTotalWork = max(c.MaxTotalWork, 2*int64(m))
	c.BigRingThreshold = min(c.BigRingThreshold, m)
	return c
}

// SelfTest stands the daemon up on a loopback listener and replays a
// zipf-skewed mix of paper-suite instances against /v1/schedule, each
// request a random rotation or reflection of its base instance. It
// reports throughput, p50/p99 latency and cache hit-rate to out, then
// verifies the serving layer's two core claims before a clean drain:
//
//   - symmetry: every response body for one (instance, algorithm) pair
//     is byte-identical regardless of which dihedral copy was sent;
//   - caching: the canonical cache absorbs the zipf head, so the
//     hit-rate over the run is at least 50%.
func SelfTest(cfg Config, opts SelfTestOptions, out io.Writer) error {
	opts = opts.withDefaults()
	s := New(cfg.WidenForHuge(opts.HugeM))
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// The instance mix: small/medium unit cases from the paper suite
	// (sized cases are valid too but make weaker cache fodder — the
	// zipf head is what exercises hit paths).
	var mix []workload.Case
	for _, c := range workload.Suite() {
		if c.In.IsUnit() && c.In.M <= 512 {
			mix = append(mix, c)
		}
	}
	if len(mix) == 0 {
		cancel()
		<-serveDone
		return fmt.Errorf("serve: selftest found no unit cases in the paper suite")
	}
	algs := []string{"A1", "B1", "C1", "A2", "B2", "C2"}

	type sample struct {
		latency time.Duration
		hit     bool
	}
	var (
		mu        sync.Mutex
		samples   []sample
		retried   int
		bodies    = map[string][]byte{} // (case,alg) -> first body seen
		mismatch  error
		transport = &http.Transport{MaxIdleConnsPerHost: opts.Clients}
	)
	lc := &LoadClient{
		HTTP:  &http.Client{Transport: transport},
		Bases: []string{base},
	}
	before := s.stats.Snapshot()

	// Zipf over the case mix: rank-skewed popularity, exponent 1.7 — a
	// hot head over a long tail, the workload shape a result cache is
	// for. Each client gets its own derived rng (math/rand sources are
	// not concurrency-safe).
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(id)*7919))
			zipf := rand.NewZipf(rng, 1.7, 1, uint64(len(mix)-1))
			for range work {
				cs := mix[int(zipf.Uint64())]
				alg := algs[rng.Intn(len(algs))]
				in := DihedralCopy(cs.In, rng)
				res, err := lc.PostSchedule(rng, in, alg)
				mu.Lock()
				if err != nil && mismatch == nil {
					mismatch = err
				}
				if err == nil {
					samples = append(samples, sample{latency: res.Latency, hit: res.Cache == "hit"})
					retried += res.Retried429
					k := cs.ID + "|" + alg
					if prev, ok := bodies[k]; !ok {
						bodies[k] = res.Body
					} else if !bytes.Equal(prev, res.Body) && mismatch == nil {
						mismatch = fmt.Errorf("serve: selftest: %s responses differ across dihedral copies", k)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	for i := 0; i < opts.Requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	// Huge-instance phase: a dense ring of HugeM processors must route
	// to the registry's huge-ring engine end-to-end — request in, engine
	// stamp out.
	huge, _ := engine.Resolve("", engine.Shape{Algorithm: "C1", M: opts.HugeM, Unit: true}, opts.HugeM)
	var hugeLine string
	if opts.HugeM > 0 {
		rng := rand.New(rand.NewSource(opts.Seed + 104729))
		works := make([]int64, opts.HugeM)
		for i := range works {
			works[i] = 2
		}
		hugeStart := time.Now()
		res, err := lc.PostSchedule(rng, instance.NewUnit(works), "C1")
		if err != nil {
			cancel()
			<-serveDone
			return fmt.Errorf("serve: selftest huge instance (m=%d): %w", opts.HugeM, err)
		}
		var resp ScheduleResponse
		if err := json.Unmarshal(res.Body, &resp); err != nil {
			cancel()
			<-serveDone
			return fmt.Errorf("serve: selftest huge instance: decode: %w", err)
		}
		if resp.Engine != huge.Name {
			cancel()
			<-serveDone
			return fmt.Errorf("serve: selftest huge instance (m=%d) ran engine=%q, want %s", opts.HugeM, resp.Engine, huge.Name)
		}
		hugeLine = fmt.Sprintf("  %-11s m=%d engine=%s makespan=%d in %s\n",
			huge.Name, opts.HugeM, resp.Engine, resp.Makespan, time.Since(hugeStart).Round(time.Millisecond))
	}

	// Streaming phase: a long-lived session fed three arrival waves must
	// match a one-shot online run over the concatenated sequence — the
	// end-to-end proof of the incremental engine's bit-identity claim.
	sessionLine, err := streamingPhase(lc.HTTP, base, opts.Seed)
	if err != nil {
		cancel()
		<-serveDone
		return err
	}

	// Drain: cancel the serve context mid-steady-state and require the
	// graceful path to complete.
	cancel()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("serve: selftest drain: %w", err)
	}

	if mismatch != nil {
		return mismatch
	}
	if len(samples) == 0 {
		return fmt.Errorf("serve: selftest produced no successful requests")
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].latency < samples[j].latency })
	hits := 0
	for _, s := range samples {
		if s.hit {
			hits++
		}
	}
	hitRate := float64(hits) / float64(len(samples))
	p50 := samples[len(samples)/2].latency
	p99 := samples[(len(samples)*99)/100].latency
	delta := s.stats.Snapshot().Sub(before)

	fmt.Fprintf(out, "ringserve selftest: %d requests, %d clients, %d cases x %d algorithms\n",
		len(samples), opts.Clients, len(mix), len(algs))
	fmt.Fprintf(out, "  throughput  %.0f req/s (%.2fs wall)\n",
		float64(len(samples))/elapsed.Seconds(), elapsed.Seconds())
	fmt.Fprintf(out, "  latency     p50 %s  p99 %s\n", p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	fmt.Fprintf(out, "  cache       hit-rate %.1f%% (%d hits, %d misses, %d evictions)\n",
		100*hitRate, delta.Get(statCacheHits), delta.Get(statCacheMisses), delta.Get(statEvictions))
	fmt.Fprintf(out, "  rejected    %d (client retried %d)  coalesced %d  canceled %d  panics %d\n",
		delta.Get(statRejected), retried, delta.Get(statCoalesced), delta.Get(statCanceled), delta.Get(statPanics))
	if hugeLine != "" {
		fmt.Fprint(out, hugeLine)
		if s.EngineComputes()[huge.Name] < 1 {
			return fmt.Errorf("serve: selftest huge instance did not register a %s compute", huge.Name)
		}
	}
	fmt.Fprint(out, sessionLine)
	if n := s.EngineComputes()[sessionEngine.Name]; n < 3 {
		return fmt.Errorf("serve: selftest streaming phase did not register its %s computes (%d)", sessionEngine.Name, n)
	}

	if hitRate < 0.5 {
		return fmt.Errorf("serve: selftest hit-rate %.1f%% below the 50%% bar", 100*hitRate)
	}
	fmt.Fprintf(out, "  drain       clean\n")
	return nil
}

// streamingPhase drives the /v1/session surface end to end: create a
// session, feed it three seeded arrival waves (release gaps wide enough
// that each wave quiesces before the next), assert the incremental
// results are monotone and conserve work per wave, and require the
// final makespan/flow-time/steps/hops to be bit-identical to a one-shot
// online run over the concatenated arrival sequence. Delete returns the
// terminal snapshot. The report line goes back to the caller.
func streamingPhase(httpc *http.Client, base string, seed int64) (string, error) {
	const m = 16
	fail := func(format string, args ...any) (string, error) {
		return "", fmt.Errorf("serve: selftest streaming: "+format, args...)
	}
	call := func(method, path string, req, resp any) error {
		var body io.Reader
		if req != nil {
			b, err := json.Marshal(req)
			if err != nil {
				return err
			}
			body = bytes.NewReader(b)
		}
		hreq, err := http.NewRequest(method, base+path, body)
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hres, err := httpc.Do(hreq)
		if err != nil {
			return err
		}
		defer hres.Body.Close()
		raw, err := io.ReadAll(hres.Body)
		if err != nil {
			return err
		}
		if hres.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", method, path, hres.StatusCode, raw)
		}
		return json.Unmarshal(raw, resp)
	}

	var created SessionCreateResponse
	if err := call(http.MethodPost, "/v1/session", SessionCreateRequest{M: m}, &created); err != nil {
		return fail("create: %v", err)
	}
	rng := rand.New(rand.NewSource(seed + 224737))
	var all []ArrivalBatch
	var prevSpan int64
	start := time.Now()
	for w := 0; w < 3; w++ {
		wave := make([]ArrivalBatch, 3)
		var waveWork int64
		for i := range wave {
			wave[i] = ArrivalBatch{
				// Gaps of 4096 dwarf any wave's work, so every wave
				// quiesces before the next release.
				T:     int64(w)*4096 + int64(rng.Intn(8)),
				Proc:  rng.Intn(m),
				Count: int64(1 + rng.Intn(20)),
			}
			waveWork += wave[i].Count
		}
		all = append(all, wave...)
		var resp SessionArrivalsResponse
		if err := call(http.MethodPost, "/v1/session/"+created.ID+"/arrivals", SessionArrivalsRequest{Arrivals: wave}, &resp); err != nil {
			return fail("wave %d: %v", w, err)
		}
		if !resp.Quiescent {
			return fail("wave %d did not quiesce: now=%d pending=%d", w, resp.Now, resp.Pending)
		}
		if resp.Makespan < prevSpan {
			return fail("wave %d makespan regressed %d -> %d", w, prevSpan, resp.Makespan)
		}
		prevSpan = resp.Makespan
		var delta int64
		for _, d := range resp.DeltaProcessed {
			delta += d
		}
		if delta != waveWork {
			return fail("wave %d processed %d jobs, appended %d", w, delta, waveWork)
		}
	}
	var terminal SessionSnapshot
	if err := call(http.MethodDelete, "/v1/session/"+created.ID, nil, &terminal); err != nil {
		return fail("delete: %v", err)
	}
	if !terminal.Terminal || !terminal.Quiescent {
		return fail("delete snapshot not terminal: %+v", terminal)
	}

	batches := make([]online.Batch, len(all))
	for i, a := range all {
		batches[i] = online.Batch{Time: a.T, Proc: a.Proc, Count: a.Count}
	}
	oin, err := online.NewInstance(m, batches)
	if err != nil {
		return fail("one-shot instance: %v", err)
	}
	oneShot, err := online.Run(oin, online.Params{})
	if err != nil {
		return fail("one-shot run: %v", err)
	}
	if terminal.Makespan != oneShot.Makespan || terminal.MaxFlowTime != oneShot.MaxFlowTime ||
		terminal.Steps != oneShot.Steps || terminal.JobHops != oneShot.JobHops {
		return fail("session result (span %d flow %d steps %d hops %d) != one-shot (%d %d %d %d)",
			terminal.Makespan, terminal.MaxFlowTime, terminal.Steps, terminal.JobHops,
			oneShot.Makespan, oneShot.MaxFlowTime, oneShot.Steps, oneShot.JobHops)
	}
	return fmt.Sprintf("  sessions    3 waves m=%d makespan=%d flow=%d == one-shot in %s\n",
		m, terminal.Makespan, terminal.MaxFlowTime, time.Since(start).Round(time.Millisecond)), nil
}

// DihedralCopy returns a random rotation — reflected half the time — of
// in, exercising the canonicalizer on every request.
func DihedralCopy(in instance.Instance, rng *rand.Rand) instance.Instance {
	out := in.Rotate(rng.Intn(in.M))
	if rng.Intn(2) == 1 {
		out = out.Reflect()
	}
	return out
}
