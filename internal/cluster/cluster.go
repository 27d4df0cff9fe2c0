package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"ringsched/internal/metrics"
	"ringsched/internal/serve"
)

// Config tunes one cluster node. The zero value of every field but Self
// has a production default; Peers may be empty (a one-node cluster is a
// plain ringserve).
type Config struct {
	// Self is this node's advertised address (host:port) — its identity
	// in the rendezvous hash and the value of the peer-forward header.
	Self string
	// Peers are the other nodes' advertised addresses.
	Peers []string
	// PeerTimeout caps a single peer call attempt; 0 means 2s.
	PeerTimeout time.Duration
	// MaxAttempts bounds tries per peer fetch; 0 means 3.
	MaxAttempts int
	// BaseBackoff seeds the retry backoff; 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps any backoff sleep; 0 means 1s.
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is the open-state wait before a half-open trial;
	// 0 means 2s.
	BreakerCooldown time.Duration
	// HealthInterval spaces membership-loop readiness probes; 0 means
	// 500ms.
	HealthInterval time.Duration
	// Seed drives backoff jitter (deterministic retry schedules under a
	// fixed seed); 0 means 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// stat indexes the node's counter table, statRows. Adding a counter
// costs one entry here and one row there: /metrics and the /v1/statusz
// cluster block both render from the row.
type stat int

const (
	statFetches stat = iota
	statFetchFailures
	statRetries
	statDegraded
	statBreakerOpens
	statBreakerCloses
	statProbes
	statProbeFailures
	numStats
)

// breakerTransitions is the breaker-transition family, one row per state.
var breakerTransitions = metrics.Counter{Name: "ringserve_peer_breaker_transitions_total", Help: "Per-peer circuit breaker transitions."}

// statRows declares the node's counters in exposition order.
var statRows = [numStats]metrics.Counter{
	statFetches:       {Key: "peerFetches", Name: "ringserve_peer_fetches_total", Help: "Cache misses served by the key's owning peer."},
	statFetchFailures: {Key: "peerFetchFailures", Name: "ringserve_peer_fetch_failures_total", Help: "Peer call attempts that errored."},
	statRetries:       {Key: "peerRetries", Name: "ringserve_peer_retries_total", Help: "Extra attempts spent in the peer retry envelope."},
	statDegraded:      {Key: "degraded", Name: "ringserve_degraded_total", Help: "Requests computed locally because the owner was unreachable."},
	statBreakerOpens:  breakerTransitions.Labeled("breakerOpens", "state", "open"),
	statBreakerCloses: breakerTransitions.Labeled("breakerCloses", "state", "closed"),
	statProbes:        {Key: "probes", Name: "ringserve_peer_probes_total", Help: "Membership-loop readiness probes issued."},
	statProbeFailures: {Key: "probeFailures", Name: "ringserve_peer_probe_failures_total", Help: "Readiness probes that did not come back ready."},
}

// Node is one member of a ringserve cluster: a serve.Server plus the
// peer-fetch plane. It implements serve.Remote and installs itself into
// the server's Remote/ExtraProm/ExtraStatus hooks.
type Node struct {
	cfg    Config
	server *serve.Server
	client *http.Client
	peers  map[string]*peer
	order  []string // sorted peer addresses, for stable exposition
	stats  *metrics.Counters[stat]
	hist   metrics.Histogram // peer fetch latency (successful fetches)

	rngMu sync.Mutex
	rng   *rand.Rand
}

// peer is one remote member's client-side state.
type peer struct {
	addr string
	br   *breaker
}

// New builds a Node and its embedded serve.Server. The server starts
// not-ready; Start's first health sweep flips it ready.
func New(cfg Config, scfg serve.Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
		}},
		peers: make(map[string]*peer, len(cfg.Peers)),
		stats: metrics.NewCounters[stat](statRows[:]),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, addr := range cfg.Peers {
		if addr == "" || addr == cfg.Self {
			continue
		}
		n.peers[addr] = &peer{
			addr: addr,
			br: &breaker{
				threshold: cfg.BreakerThreshold,
				cooldown:  cfg.BreakerCooldown,
				onOpen:    func() { n.stats.Inc(statBreakerOpens) },
				onClose:   func() { n.stats.Inc(statBreakerCloses) },
			},
		}
	}
	n.order = make([]string, 0, len(n.peers))
	for addr := range n.peers {
		n.order = append(n.order, addr)
	}
	sort.Strings(n.order)

	scfg.Remote = n
	scfg.ExtraProm = n.writeProm
	scfg.ExtraStatus = n.status
	n.server = serve.New(scfg)
	n.server.SetReady(false)
	return n
}

// Server exposes the embedded daemon for serving and tests.
func (n *Node) Server() *serve.Server { return n.server }

// Stats snapshots the node's cluster counters, keyed as in the
// /v1/statusz cluster block.
func (n *Node) Stats() map[string]int64 { return n.stats.Snapshot().Map() }

// Start runs one synchronous health sweep (after which the node reports
// ready), then probes peers every HealthInterval until ctx is done. The
// sweep is what detects crash-stops without traffic and re-admits
// restarted peers: probe outcomes feed the same per-peer breakers the
// fetch path uses.
func (n *Node) Start(ctx context.Context) {
	n.sweep(ctx)
	n.server.SetReady(true)
	go func() {
		t := time.NewTicker(n.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				n.sweep(ctx)
			}
		}
	}()
}

// sweep probes every peer's /v1/readyz once, concurrently.
func (n *Node) sweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			n.probe(ctx, p)
		}(p)
	}
	wg.Wait()
}

// probe checks one peer's readiness. A 200 is a success (closing an
// open breaker = re-admission); anything else — refused, timed out,
// starting, draining — is a failure feeding the crash-stop detector.
func (n *Node) probe(ctx context.Context, p *peer) {
	n.stats.Inc(statProbes)
	pctx, cancel := context.WithTimeout(ctx, n.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+p.addr+"/v1/readyz", nil)
	if err != nil {
		n.stats.Inc(statProbeFailures)
		p.br.failure(time.Now())
		return
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.stats.Inc(statProbeFailures)
		p.br.failure(time.Now())
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.stats.Inc(statProbeFailures)
		p.br.failure(time.Now())
		return
	}
	p.br.success()
}

// members returns the current ownership set: self plus every peer whose
// breaker is not open, in deterministic order. All nodes with the same
// view of liveness compute the same owner for every key.
func (n *Node) members() []string {
	out := make([]string, 0, len(n.order)+1)
	out = append(out, n.cfg.Self)
	for _, addr := range n.order {
		if !n.peers[addr].br.isOpen() {
			out = append(out, addr)
		}
	}
	return out
}

// Owner reports which member currently owns key (exported for the
// selftest harness and tests).
func (n *Node) Owner(key string) string { return owner(key, n.members()) }

// Fetch implements serve.Remote: resolve the key's owner, and when it
// is a live peer, fetch the response body from it under the full
// robustness envelope. ok=false — the graceful-degradation signal — is
// returned when the key is self-owned, the owner's breaker is open, or
// the retry budget is exhausted; the serving layer then computes
// locally and the request still succeeds.
func (n *Node) Fetch(ctx context.Context, endpoint, key string, reqBody []byte) ([]byte, bool) {
	own := n.Owner(key)
	if own == n.cfg.Self {
		return nil, false
	}
	p := n.peers[own]
	if p == nil { // unknown owner can't happen, but never block serving on it
		return nil, false
	}
	if !p.br.allow(time.Now()) {
		n.stats.Inc(statDegraded)
		return nil, false
	}
	body, ok := n.fetchFrom(ctx, p, endpoint, reqBody)
	if !ok {
		n.stats.Inc(statDegraded)
	}
	return body, ok
}

// fetchFrom runs the per-peer retry loop: MaxAttempts tries, each under
// PeerTimeout, sleeping a capped jittered exponential backoff between
// failures and honoring Retry-After on 429 (a loaded peer is alive — its
// backpressure feeds the breaker as success, not failure).
func (n *Node) fetchFrom(ctx context.Context, p *peer, endpoint string, reqBody []byte) ([]byte, bool) {
	backoffs := 0
	for attempt := 0; attempt < n.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			n.stats.Inc(statRetries)
		}
		if ctx.Err() != nil {
			return nil, false
		}
		body, retryAfter, err := n.attempt(ctx, p, endpoint, reqBody)
		if err == nil {
			p.br.success()
			n.stats.Inc(statFetches)
			return body, true
		}
		if retryAfter > 0 {
			// 429: the peer is alive and shedding load; wait out its
			// hint (jittered) without charging the breaker.
			p.br.success()
			if !sleepCtx(ctx, n.jitter(retryAfter)) {
				return nil, false
			}
			continue
		}
		n.stats.Inc(statFetchFailures)
		p.br.failure(time.Now())
		if !p.br.allow(time.Now()) {
			// The breaker opened mid-envelope: stop burning attempts on
			// a peer now considered crash-stopped.
			return nil, false
		}
		if !sleepCtx(ctx, n.backoff(backoffs)) {
			return nil, false
		}
		backoffs++
	}
	return nil, false
}

// attempt issues one forwarded request. retryAfter > 0 marks a 429 with
// the peer's advertised pause.
func (n *Node) attempt(ctx context.Context, p *peer, endpoint string, reqBody []byte) (body []byte, retryAfter time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, n.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, "http://"+p.addr+"/v1/"+endpoint, bytes.NewReader(reqBody))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.PeerForwardHeader, n.cfg.Self)
	start := time.Now()
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		n.hist.Observe(time.Since(start))
		return b, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, serve.RetryAfterDelay(resp.Header, n.cfg.BaseBackoff), fmt.Errorf("peer %s: %s", p.addr, resp.Status)
	default:
		return nil, 0, fmt.Errorf("peer %s: %s: %s", p.addr, resp.Status, bytes.TrimSpace(b))
	}
}

// backoff computes the i-th jittered backoff delay under the node's rng
// (one rng, mutex-guarded: peer fetches run on handler goroutines).
func (n *Node) backoff(i int) time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return serve.JitteredBackoff(n.rng, i, n.cfg.BaseBackoff, n.cfg.MaxBackoff)
}

// jitter scales d by a random factor in [0.5, 1.5), capped at
// MaxBackoff.
func (n *Node) jitter(d time.Duration) time.Duration {
	n.rngMu.Lock()
	f := 0.5 + n.rng.Float64()
	n.rngMu.Unlock()
	j := time.Duration(float64(d) * f)
	if j > n.cfg.MaxBackoff {
		j = n.cfg.MaxBackoff
	}
	return j
}

// sleepCtx sleeps d or until ctx is done; false means ctx won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// PeerState is one peer's membership view for /v1/statusz and tests.
type PeerState struct {
	Addr     string `json:"addr"`
	State    string `json:"state"` // closed (up) | open (down)
	Failures int    `json:"failures"`
}

// PeerStates reports every peer's breaker position in address order.
func (n *Node) PeerStates() []PeerState {
	out := make([]PeerState, 0, len(n.order))
	for _, addr := range n.order {
		st, fails := n.peers[addr].br.snapshot()
		out = append(out, PeerState{Addr: addr, State: st.String(), Failures: fails})
	}
	return out
}

// status is the /v1/statusz "cluster" block.
func (n *Node) status() any {
	return struct {
		Self    string           `json:"self"`
		Size    int              `json:"size"` // live members including self
		Peers   []PeerState      `json:"peers"`
		Counter map[string]int64 `json:"counters"`
	}{n.cfg.Self, len(n.members()), n.PeerStates(), n.Stats()}
}

// writeProm appends the cluster families to the /metrics exposition:
// fetch/retry/degrade counters, breaker transition counters, per-peer
// breaker gauges, and the peer-fetch latency histogram — in fixed
// order, keeping the exposition byte-stable for a given state.
func (n *Node) writeProm(p *metrics.PromWriter) {
	n.stats.Snapshot().WriteProm(p)

	open := make([]metrics.PromSample, 0, len(n.order))
	for _, addr := range n.order {
		v := 0.0
		if n.peers[addr].br.isOpen() {
			v = 1
		}
		open = append(open, metrics.PromSample{
			Labels: []metrics.PromLabel{{Name: "peer", Value: addr}},
			Value:  v,
		})
	}
	p.Gauge("ringserve_peer_breaker_open", "1 when the peer's breaker is open (peer treated as crash-stopped).", open...)
	p.Gauge("ringserve_cluster_members", "Live members (self included) in the current ownership set.", metrics.PromSample{Value: float64(len(n.members()))})
	p.Histogram("ringserve_peer_fetch_seconds", "Latency of successful peer fetches.",
		metrics.PromHistogram{Snapshot: n.hist.Snapshot()})
}
