package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"ringsched/internal/engine"
	"ringsched/internal/instance"
	"ringsched/internal/serve"
	"ringsched/internal/workload"
)

// SelfTestOptions tune the cluster crash-stop drill.
type SelfTestOptions struct {
	// Requests is the total zipf-load request count; 0 means 600, and
	// anything under 30 is raised to 30 so the three phases (healthy,
	// degraded, re-warmed) all see traffic. A third is issued healthy, a
	// third with one node down, and a third after the restart.
	Requests int
	// Clients is the concurrent load-goroutine count; 0 means 6.
	Clients int
	// Seed drives every random choice — the zipf mix, dihedral copies,
	// client jitter, and the crash victim — so the fault schedule is
	// reproducible under a fixed seed.
	Seed int64
	// P99Bound is the client-visible p99 latency the run must stay
	// within despite the crash; 0 means 2s.
	P99Bound time.Duration
	// HugeM, when positive, adds a post-drill huge-instance phase: a
	// dense unit ring of HugeM processors is scheduled through the
	// cluster and must come back stamped engine=bigring (node admission
	// caps and the routing threshold are widened to admit it).
	HugeM int
}

func (o SelfTestOptions) withDefaults() SelfTestOptions {
	if o.Requests <= 0 {
		o.Requests = 600
	}
	if o.Requests < 30 {
		o.Requests = 30
	}
	if o.Clients <= 0 {
		o.Clients = 6
	}
	if o.P99Bound <= 0 {
		o.P99Bound = 2 * time.Second
	}
	return o
}

// stNode is one in-process cluster member plus its lifecycle handles.
type stNode struct {
	node   *Node
	cancel context.CancelFunc
	done   chan error
}

// SelfTest is the cluster robustness drill behind ringserve
// -cluster-selftest: it spawns three in-process nodes sharding one
// keyspace, verifies cluster-wide request coalescing with a concurrent
// duplicate burst (exactly one engine run for K copies of one
// instance, sprayed across all nodes), then drives a sustained seeded
// zipf load during which one node — a seeded choice — is crash-stopped
// and later restarted on the same address. It asserts 100%
// client-visible success across the whole run (requests re-route and
// degrade to local compute, never fail), breaker-driven crash-stop
// detection on both survivors, p99 within P99Bound, bounded compute
// duplication, re-admission after the restart, and a post-restart
// cache re-warm on the restarted node.
func SelfTest(scfg serve.Config, opts SelfTestOptions, out io.Writer) error {
	opts = opts.withDefaults()
	scfg = scfg.WidenForHuge(opts.HugeM)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Three listeners first: every node needs the full address list.
	const numNodes = 3
	lns := make([]net.Listener, numNodes)
	addrs := make([]string, numNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// Tight robustness knobs: the drill wants crash-stop detection and
	// re-admission inside a CI-friendly wall clock.
	ccfg := func(i int) Config {
		return Config{
			Self:             addrs[i],
			Peers:            addrs,
			PeerTimeout:      time.Second,
			MaxAttempts:      2,
			BaseBackoff:      10 * time.Millisecond,
			MaxBackoff:       200 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  300 * time.Millisecond,
			HealthInterval:   100 * time.Millisecond,
			Seed:             opts.Seed + int64(i)*101,
		}
	}
	nodes := make([]*stNode, numNodes)
	startNode := func(i int, ln net.Listener) {
		ctx, cancel := context.WithCancel(context.Background())
		n := New(ccfg(i), scfg)
		sn := &stNode{node: n, cancel: cancel, done: make(chan error, 1)}
		go func() { sn.done <- n.Server().Serve(ctx, ln) }()
		n.Start(ctx)
		nodes[i] = sn
	}
	for i, ln := range lns {
		startNode(i, ln)
	}
	stopAll := func() {
		for _, sn := range nodes {
			if sn != nil {
				sn.cancel()
				<-sn.done
			}
		}
	}
	defer stopAll()

	bases := make([]string, numNodes)
	for i, a := range addrs {
		bases[i] = "http://" + a
	}

	// The same unit-case mix the single-node selftest replays.
	var mix []workload.Case
	for _, c := range workload.Suite() {
		if c.In.IsUnit() && c.In.M <= 512 {
			mix = append(mix, c)
		}
	}
	if len(mix) == 0 {
		return fmt.Errorf("cluster: selftest found no unit cases in the paper suite")
	}
	algs := []string{"A1", "B1", "C1", "A2", "B2", "C2"}

	// Phase 0 needs one ownership view: the node started first can open
	// a breaker on a peer that was still starting, and until a probe
	// closes it that node also owns the peer's keys.
	for i := range nodes {
		others := []int{(i + 1) % numNodes, (i + 2) % numNodes}
		if err := waitBreakers(nodes, others, addrs[i], false, 10*time.Second); err != nil {
			return err
		}
	}

	// Phase 0 — cluster-wide coalescing: K concurrent requests for
	// dihedral copies of one instance, sprayed across all three nodes,
	// must produce exactly one engine run cluster-wide and
	// byte-identical bodies.
	if err := coalesceBurst(nodes, bases, mix[0].In, rng, out); err != nil {
		return err
	}

	// Sustained zipf load with a seeded mid-run crash and restart.
	var (
		mu      sync.Mutex
		lats    []time.Duration
		seen    = map[string]bool{} // unique (case, alg) identities requested
		loadErr error
	)
	seen[mix[0].ID+"|C1"] = true // the coalescing-burst key
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(opts.Seed + int64(id)*7919))
			zipf := rand.NewZipf(crng, 1.7, 1, uint64(len(mix)-1))
			lc := &serve.LoadClient{
				HTTP:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
				Bases:       bases,
				MaxAttempts: 10,
				BaseBackoff: 10 * time.Millisecond,
				MaxBackoff:  250 * time.Millisecond,
			}
			for range work {
				cs := mix[int(zipf.Uint64())]
				alg := algs[crng.Intn(len(algs))]
				in := serve.DihedralCopy(cs.In, crng)
				res, err := lc.PostSchedule(crng, in, alg)
				mu.Lock()
				if err != nil && loadErr == nil {
					loadErr = err
				}
				if err == nil {
					lats = append(lats, res.Latency)
					seen[cs.ID+"|"+alg] = true
				}
				mu.Unlock()
			}
		}(c)
	}

	victim := rng.Intn(numNodes)
	survivors := make([]int, 0, numNodes-1)
	for i := 0; i < numNodes; i++ {
		if i != victim {
			survivors = append(survivors, i)
		}
	}
	crashAt := opts.Requests / 3
	restartAt := 2 * opts.Requests / 3
	start := time.Now()
	var crashWall, detectWall, readmitWall time.Duration
	// The victim's first life ends at the crash; its counters are folded
	// into the totals from this snapshot (the process is gone, but its
	// computed keys live on in the survivors' caches).
	var firstLifeServe, firstLifeCluster map[string]int64
	for i := 0; i < opts.Requests; i++ {
		work <- i
		switch i {
		case crashAt:
			// Crash-stop: the listener dies first (new connections refuse
			// instantly, the crash-stop shape), then the serve context.
			lns[victim].Close()
			nodes[victim].cancel()
			<-nodes[victim].done
			firstLifeServe = nodes[victim].node.Server().Stats()
			firstLifeCluster = nodes[victim].node.Stats()
			nodes[victim] = nil
			crashWall = time.Since(start)
			// Hold the load until both survivors' breakers call it: the
			// detection latency is the health loop's, not the feeder's.
			if err := waitBreakers(nodes, survivors, addrs[victim], true, 10*time.Second); err != nil {
				close(work)
				wg.Wait()
				return err
			}
			detectWall = time.Since(start)
		case restartAt:
			ln, err := relisten(addrs[victim], 2*time.Second)
			if err != nil {
				close(work)
				wg.Wait()
				return fmt.Errorf("cluster: selftest restart: %w", err)
			}
			lns[victim] = ln
			startNode(victim, ln)
			if err := waitBreakers(nodes, survivors, addrs[victim], false, 10*time.Second); err != nil {
				close(work)
				wg.Wait()
				return err
			}
			readmitWall = time.Since(start)
		}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	if loadErr != nil {
		return fmt.Errorf("cluster: selftest client failure (success rate < 100%%): %w", loadErr)
	}
	if len(lats) != opts.Requests {
		return fmt.Errorf("cluster: selftest: %d/%d requests succeeded", len(lats), opts.Requests)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[(len(lats)*99)/100]

	// Compute accounting: every unique key is computed somewhere, and
	// the duplication from degradation plus the victim's cold restart
	// stays bounded by the number of node lifetimes (each lifetime
	// computes a cached key at most once).
	unique := len(seen)
	computes := firstLifeServe["computes"]
	coalesced := firstLifeServe["coalesced"]
	degraded := firstLifeCluster["degraded"]
	opens := firstLifeCluster["breakerOpens"]
	closes := firstLifeCluster["breakerCloses"]
	for _, sn := range nodes {
		ss := sn.node.Server().Stats()
		cs := sn.node.Stats()
		computes += ss["computes"]
		coalesced += ss["coalesced"]
		degraded += cs["degraded"]
		opens += cs["breakerOpens"]
		closes += cs["breakerCloses"]
	}
	rewarm := nodes[victim].node.Server().Stats()["computes"]

	fmt.Fprintf(out, "ringserve cluster selftest: %d nodes, %d requests, %d clients, crash node %d at request %d, restart at %d (seed %d)\n",
		numNodes, opts.Requests, opts.Clients, victim, crashAt, restartAt, opts.Seed)
	fmt.Fprintf(out, "  success     100%% (%d/%d), throughput %.0f req/s (%.2fs wall)\n",
		len(lats), opts.Requests, float64(len(lats))/elapsed.Seconds(), elapsed.Seconds())
	fmt.Fprintf(out, "  latency     p50 %s  p99 %s (bound %s)\n", p50.Round(time.Microsecond), p99.Round(time.Microsecond), opts.P99Bound)
	fmt.Fprintf(out, "  fault plane crash %.2fs, detected %.2fs, re-admitted %.2fs; breaker opens %d closes %d\n",
		crashWall.Seconds(), detectWall.Seconds(), readmitWall.Seconds(), opens, closes)
	fmt.Fprintf(out, "  compute     %d runs for %d unique keys (%.2fx), coalesced %d, degraded-local %d, re-warm computes on node %d: %d\n",
		computes, unique, float64(computes)/float64(unique), coalesced, degraded, victim, rewarm)

	if p99 > opts.P99Bound {
		return fmt.Errorf("cluster: selftest p99 %s over the %s bound", p99, opts.P99Bound)
	}
	if opens == 0 {
		return fmt.Errorf("cluster: selftest: no survivor opened a breaker for the crashed node")
	}
	if closes == 0 {
		return fmt.Errorf("cluster: selftest: the restarted node was never re-admitted")
	}
	if computes < int64(unique) {
		return fmt.Errorf("cluster: selftest: %d computes < %d unique keys (a key was never computed?)", computes, unique)
	}
	if limit := int64(unique) * (numNodes + 1); computes > limit {
		return fmt.Errorf("cluster: selftest: %d computes for %d unique keys exceeds the %d node-lifetime bound — coalescing or the two-tier cache is leaking work",
			computes, unique, limit)
	}
	if rewarm == 0 {
		return fmt.Errorf("cluster: selftest: restarted node served no computes — cache never re-warmed")
	}

	// Huge-instance phase: with the whole cluster healthy again, one
	// dense HugeM-processor ring must route to the big-ring engine on
	// whichever node owns its key.
	if opts.HugeM > 0 {
		crng := rand.New(rand.NewSource(opts.Seed + 104729))
		works := make([]int64, opts.HugeM)
		for i := range works {
			works[i] = 2
		}
		lc := &serve.LoadClient{
			Bases:       bases,
			MaxAttempts: 6,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
		}
		res, err := lc.PostSchedule(crng, instance.NewUnit(works), "C1")
		if err != nil {
			return fmt.Errorf("cluster: selftest huge instance (m=%d): %w", opts.HugeM, err)
		}
		var resp serve.ScheduleResponse
		if err := json.Unmarshal(res.Body, &resp); err != nil {
			return fmt.Errorf("cluster: selftest huge instance: decode: %w", err)
		}
		huge, _ := engine.Resolve("", engine.Shape{Algorithm: "C1", M: opts.HugeM, Unit: true}, opts.HugeM)
		if resp.Engine != huge.Name {
			return fmt.Errorf("cluster: selftest huge instance (m=%d) ran engine=%q, want %s", opts.HugeM, resp.Engine, huge.Name)
		}
		var big int64
		for _, sn := range nodes {
			big += sn.node.Server().EngineComputes()[huge.Name]
		}
		if big < 1 {
			return fmt.Errorf("cluster: selftest huge instance did not register a %s compute", huge.Name)
		}
		fmt.Fprintf(out, "  %-11s m=%d engine=%s makespan=%d (cluster %s computes %d)\n",
			huge.Name, opts.HugeM, resp.Engine, resp.Makespan, huge.Name, big)
	}
	fmt.Fprintf(out, "  drain       clean\n")
	return nil
}

// coalesceBurst sprays K concurrent requests — each a random dihedral
// copy of one fresh instance — across every node and requires exactly
// one engine run cluster-wide plus byte-identical bodies.
func coalesceBurst(nodes []*stNode, bases []string, in instance.Instance, rng *rand.Rand, out io.Writer) error {
	const k = 12
	var before int64
	for _, sn := range nodes {
		before += sn.node.Server().Stats()["computes"]
	}
	type reply struct {
		body []byte
		err  error
	}
	replies := make(chan reply, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		crng := rand.New(rand.NewSource(rng.Int63()))
		base := bases[i%len(bases)]
		copyIn := serve.DihedralCopy(in, crng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc := &serve.LoadClient{Bases: []string{base}}
			res, err := lc.PostSchedule(crng, copyIn, "C1")
			replies <- reply{body: res.Body, err: err}
		}()
	}
	wg.Wait()
	close(replies)
	var first []byte
	for r := range replies {
		if r.err != nil {
			return fmt.Errorf("cluster: coalescing burst request failed: %w", r.err)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			return fmt.Errorf("cluster: coalescing burst produced differing bodies")
		}
	}
	var after int64
	for _, sn := range nodes {
		after += sn.node.Server().Stats()["computes"]
	}
	if got := after - before; got != 1 {
		return fmt.Errorf("cluster: coalescing burst: %d engine runs for %d concurrent copies, want exactly 1", got, k)
	}
	fmt.Fprintf(out, "  coalescing  %d concurrent dihedral copies -> 1 engine run, byte-identical bodies\n", k)
	return nil
}

// waitBreakers polls the survivors until each reports the victim's
// breaker in the wanted position (open = crash-stop detected, closed =
// re-admitted).
func waitBreakers(nodes []*stNode, survivors []int, victimAddr string, wantOpen bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, i := range survivors {
			found := false
			for _, ps := range nodes[i].node.PeerStates() {
				if ps.Addr == victimAddr && (ps.State == "open") == wantOpen {
					found = true
				}
			}
			ok = ok && found
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			state := "open"
			if !wantOpen {
				state = "closed"
			}
			return fmt.Errorf("cluster: selftest: survivors never saw %s %s", victimAddr, state)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// relisten rebinds addr, retrying while the crashed listener's port is
// released.
func relisten(addr string, timeout time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(timeout)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(25 * time.Millisecond)
	}
}
