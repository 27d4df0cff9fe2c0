// Command ringserve runs the scheduling-as-a-service daemon: an
// HTTP/JSON API over every algorithm and solver in the repository, with
// a canonical-instance result cache exploiting the ring model's
// rotation/reflection symmetry.
//
// Endpoints (all JSON):
//
//	POST /v1/schedule  run A1..C2, cap, or online on an instance
//	POST /v1/optimal   exact solver under limits (maxArcs, deadlineMs)
//	POST /v1/compare   algorithms scored against the exact optimum
//	POST   /v1/session                open a streaming scheduling session (resumable online engine)
//	POST   /v1/session/{id}/arrivals  append release batches, step incrementally, get the extended schedule
//	GET    /v1/session/{id}           session snapshot digest
//	DELETE /v1/session/{id}           quiesce the engine and return the terminal snapshot
//	GET  /v1/algorithms discovery: every algorithm and compute engine this server knows
//	GET  /v1/healthz   liveness
//	GET  /v1/readyz    readiness (503 while starting or draining)
//	GET  /v1/statusz   counters, cache hit-rate, queue depth, p50/p90/p99 latency
//	GET  /metrics      Prometheus text exposition (counters, gauges, histograms)
//
// Sessions are bounded (-max-sessions, 429 session_limit past the cap)
// and evicted after -session-ttl idle; graceful drain steps every
// surviving session to quiescence before exit.
//
// Every request carries an X-Request-Id (inbound IDs are honored) and,
// with -access-log, emits one ringsched.span/v1 JSONL record tracing
// canonicalize → cache → queue → compute → encode.
//
// With -peers, the daemon joins a multi-node cluster: the members shard
// the canonical-fingerprint keyspace by rendezvous hashing, forward
// cache misses to each key's owner under a retry/backoff/circuit-breaker
// envelope, and degrade to local compute when the owner is down.
//
// Examples:
//
//	ringserve -addr :8372
//	curl -s localhost:8372/v1/schedule -d '{"instance":{"kind":"unit","m":4,"unit":[9,0,0,3]},"algorithm":"C1"}'
//	ringserve -selftest -requests 400 -clients 8 -access-log spans.jsonl
//	ringserve -addr :8381 -peers 127.0.0.1:8381,127.0.0.1:8382,127.0.0.1:8383
//	ringserve -cluster-selftest -requests 600 -seed 7
//
// The daemon drains gracefully on SIGTERM/SIGINT: readiness flips to
// 503, the listener closes, in-flight requests finish, the compute pool
// empties, then it exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ringsched/internal/cluster"
	"ringsched/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ringserve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringserve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8372", "listen address")
	workers := fs.Int("workers", 0, "compute pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queue depth before 429 backpressure (0 = 4x workers)")
	cacheEntries := fs.Int("cache", 0, "result cache capacity in entries (0 = 4096)")
	timeout := fs.Duration("timeout", 0, "per-request compute deadline (0 = 30s)")
	drain := fs.Duration("drain", 0, "graceful shutdown budget (0 = 30s)")
	maxM := fs.Int("max-m", 0, "admission cap on ring size (0 = 100000)")
	bigringThreshold := fs.Int("bigring-threshold", 0, "route sequential A1..C2 unit-job requests with m at or above this to the big-ring engine (0 = 100000, negative = never auto-route)")
	maxSessions := fs.Int("max-sessions", 0, "cap on live streaming sessions (0 = 1024)")
	sessionTTL := fs.Duration("session-ttl", 0, "idle eviction deadline for streaming sessions (0 = 10m)")
	accessLog := fs.String("access-log", "", "write one ringsched.span/v1 JSONL record per request to this file (\"-\" = stdout)")
	selftest := fs.Bool("selftest", false, "run the built-in zipf load generator against a loopback daemon and exit")
	requests := fs.Int("requests", 0, "selftest: total requests (0 = 400)")
	clients := fs.Int("clients", 0, "selftest: concurrent clients (0 = 8)")
	seed := fs.Int64("seed", 1, "selftest: rng seed for the zipf mix and rotations")
	hugeM := fs.Int("selftest-huge-m", 0, "selftest/cluster-selftest: also schedule a dense ring of this many processors and require it to route to the big-ring engine (0 = skip)")
	peers := fs.String("peers", "", "comma-separated advertised addresses of every cluster member (enables multi-node mode)")
	advertise := fs.String("advertise", "", "this node's advertised address in -peers (default: -addr)")
	peerTimeout := fs.Duration("peer-timeout", 0, "cluster: per-attempt peer call timeout (0 = 2s)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "cluster: consecutive failures opening a peer's breaker (0 = 3)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "cluster: open-breaker wait before a half-open trial (0 = 2s)")
	healthInterval := fs.Duration("health-interval", 0, "cluster: readiness probe interval (0 = 500ms)")
	clusterSelftest := fs.Bool("cluster-selftest", false, "run the 3-node crash-stop drill (coalescing, kill+restart, 100% success) and exit")
	p99Bound := fs.Duration("p99-bound", 0, "cluster-selftest: client-visible p99 latency bound (0 = 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheEntries,
		RequestTimeout:   *timeout,
		DrainTimeout:     *drain,
		MaxM:             *maxM,
		BigRingThreshold: *bigringThreshold,
		MaxSessions:      *maxSessions,
		SessionTTL:       *sessionTTL,
	}
	if *accessLog != "" {
		if *accessLog == "-" {
			cfg.AccessLog = out
		} else {
			f, err := os.Create(*accessLog)
			if err != nil {
				return fmt.Errorf("access log: %w", err)
			}
			defer f.Close()
			cfg.AccessLog = f
		}
	}

	if *selftest {
		return serve.SelfTest(cfg, serve.SelfTestOptions{
			Requests: *requests,
			Clients:  *clients,
			Seed:     *seed,
			HugeM:    *hugeM,
		}, out)
	}
	if *clusterSelftest {
		return cluster.SelfTest(cfg, cluster.SelfTestOptions{
			Requests: *requests,
			Clients:  *clients,
			Seed:     *seed,
			P99Bound: *p99Bound,
			HugeM:    *hugeM,
		}, out)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	ln, err := serve.Listen(*addr)
	if err != nil {
		return err
	}
	start := time.Now()

	if *peers != "" {
		self := *advertise
		if self == "" {
			self = *addr
		}
		node := cluster.New(cluster.Config{
			Self:             self,
			Peers:            strings.Split(*peers, ","),
			PeerTimeout:      *peerTimeout,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			HealthInterval:   *healthInterval,
			Seed:             *seed,
		}, cfg)
		fmt.Fprintf(errw, "ringserve: cluster node %s listening on http://%s (peers=%s, workers=%d, drain on SIGTERM)\n",
			self, ln.Addr(), *peers, effectiveWorkers(*workers))
		serveDone := make(chan error, 1)
		go func() { serveDone <- node.Server().Serve(ctx, ln) }()
		node.Start(ctx)
		if err := <-serveDone; err != nil {
			return err
		}
		fmt.Fprintf(errw, "ringserve: drained cleanly after %s\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	s := serve.New(cfg)
	fmt.Fprintf(errw, "ringserve: listening on http://%s (workers=%d, drain on SIGTERM)\n",
		ln.Addr(), effectiveWorkers(*workers))
	if err := s.Serve(ctx, ln); err != nil {
		return err
	}
	fmt.Fprintf(errw, "ringserve: drained cleanly after %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func effectiveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
