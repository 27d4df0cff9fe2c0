package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"ringsched/internal/instance"
	"ringsched/internal/serve"
)

// TestRendezvousOwnership checks the two properties the shard map
// leans on: every node computes the same owner regardless of member
// order, and removing a member re-homes only that member's keys.
func TestRendezvousOwnership(t *testing.T) {
	members := []string{"10.0.0.1:8372", "10.0.0.2:8372", "10.0.0.3:8372"}
	reversed := []string{members[2], members[1], members[0]}
	// Keys shaped like the real ones: high-entropy canonical
	// fingerprints, not sequential strings (FNV on near-constant input
	// is not uniform, and nothing in the system produces such keys).
	keys := make([]string, 500)
	for i := range keys {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		keys[i] = fmt.Sprintf("schedule|%x|C1|steps=0|dist=false|bidir=false|mig=0|engine=pool", sum)
	}

	counts := map[string]int{}
	for _, k := range keys {
		a, b := owner(k, members), owner(k, reversed)
		if a != b {
			t.Fatalf("owner(%q) depends on member order: %q vs %q", k, a, b)
		}
		counts[a]++
	}
	// Rendezvous balances statistically; with 500 keys over 3 members a
	// member owning under 10% would mean a broken hash.
	for _, m := range members {
		if counts[m] < 50 {
			t.Errorf("member %s owns only %d/500 keys: badly unbalanced", m, counts[m])
		}
	}

	// Drop one member: its keys must re-home, everyone else's must not.
	dead := members[1]
	survivors := []string{members[0], members[2]}
	for _, k := range keys {
		was, now := owner(k, members), owner(k, survivors)
		if was == dead {
			if now == dead {
				t.Fatalf("key %q still owned by removed member", k)
			}
		} else if now != was {
			t.Fatalf("key %q moved from %q to %q though its owner survived", k, was, now)
		}
	}
}

// TestBreakerTransitions walks the breaker through its whole life:
// closed under sporadic failures, open at the threshold, half-open
// trials at cooldown intervals, re-opened on a failed trial, closed on
// a successful one.
func TestBreakerTransitions(t *testing.T) {
	var opens, closes int
	b := &breaker{
		threshold: 3,
		cooldown:  50 * time.Millisecond,
		onOpen:    func() { opens++ },
		onClose:   func() { closes++ },
	}
	now := time.Now()

	b.failure(now)
	b.failure(now)
	b.success() // recovery resets the consecutive count
	b.failure(now)
	b.failure(now)
	if b.isOpen() {
		t.Fatal("breaker opened below threshold")
	}
	b.failure(now)
	if !b.isOpen() || opens != 1 {
		t.Fatalf("breaker not open after 3 consecutive failures (opens=%d)", opens)
	}
	if b.allow(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
	trial := now.Add(60 * time.Millisecond)
	if !b.allow(trial) {
		t.Fatal("open breaker refused the half-open trial after cooldown")
	}
	if b.allow(trial.Add(10 * time.Millisecond)) {
		t.Fatal("breaker granted two trials in one cooldown window")
	}
	b.failure(trial) // failed trial restarts the window
	if !b.allow(trial.Add(60 * time.Millisecond)) {
		t.Fatal("no new trial after a failed one plus cooldown")
	}
	b.success()
	if b.isOpen() || closes != 1 {
		t.Fatalf("breaker not closed by successful trial (closes=%d)", closes)
	}
	if !b.allow(trial.Add(61 * time.Millisecond)) {
		t.Fatal("closed breaker refused a call")
	}
}

// testNode is one live node with its own lifecycle, so tests can
// crash-stop members independently.
type testNode struct {
	n    *Node
	ln   net.Listener
	base string
	kill func() // close listener + cancel serve context, wait for exit
}

// liveNodes stands up count cluster nodes on loopback listeners. The
// health interval is deliberately long: these tests drive the fetch
// path directly and must observe the breaker-closed crash window
// (probe-driven detection is the selftest drill's job).
func liveNodes(t *testing.T, count int, scfg serve.Config) []*testNode {
	t.Helper()
	lns := make([]net.Listener, count)
	addrs := make([]string, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	out := make([]*testNode, count)
	for i := range lns {
		n := New(Config{
			Self:             addrs[i],
			Peers:            addrs,
			PeerTimeout:      time.Second,
			MaxAttempts:      2,
			BaseBackoff:      5 * time.Millisecond,
			MaxBackoff:       50 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  200 * time.Millisecond,
			HealthInterval:   time.Hour,
			Seed:             int64(i) + 1,
		}, scfg)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		ln := lns[i]
		go func() { done <- n.Server().Serve(ctx, ln) }()
		n.Start(ctx)
		killed := false
		tn := &testNode{n: n, ln: ln, base: "http://" + addrs[i]}
		tn.kill = func() {
			if killed {
				return
			}
			killed = true
			ln.Close()
			cancel()
			<-done
		}
		out[i] = tn
		t.Cleanup(tn.kill)
	}
	return out
}

func schedulePost(t *testing.T, base string, in instance.Instance, alg string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(serve.ScheduleRequest{Instance: in, Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b := new(bytes.Buffer)
	b.ReadFrom(resp.Body)
	return resp, b.Bytes()
}

// peerOwnedInstance searches small unit instances for one whose
// schedule key is owned by a node other than home, returning it with
// the owning address.
func peerOwnedInstance(t *testing.T, home *Node, alg string) instance.Instance {
	t.Helper()
	for m := 4; m <= 64; m++ {
		works := make([]int64, m)
		works[0] = int64(m * 3)
		works[1] = 7
		cand := instance.NewUnit(works)
		// The key the serve layer builds for this request: a hand-made
		// copy drifts, and then the owner picked here is a coin flip.
		key, err := home.Server().ScheduleKey(serve.ScheduleRequest{Instance: cand, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if home.Owner(key) != home.cfg.Self {
			return cand
		}
	}
	t.Fatal("could not find an instance owned by a peer")
	return instance.Instance{}
}

// TestPeerFetchTwoTier drives the two-tier path on a live two-node
// cluster: a request landing on the non-owner is served from the owner
// ("peer" verdict, one compute cluster-wide, owner accounts the
// forwarded request), and the fetched body lands in the non-owner's
// local tier so a dihedral repeat is a local hit with identical bytes.
func TestPeerFetchTwoTier(t *testing.T) {
	ns := liveNodes(t, 2, serve.Config{Workers: 2})
	in := peerOwnedInstance(t, ns[0].n, "C1")

	resp, body := schedulePost(t, ns[0].base, in, "C1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request failed: %d %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-Ringserve-Cache"); v != "peer" {
		t.Fatalf("non-owner verdict %q, want peer", v)
	}
	if c0, c1 := ns[0].n.Server().Stats()["computes"], ns[1].n.Server().Stats()["computes"]; c0 != 0 || c1 != 1 {
		t.Fatalf("computes (non-owner=%d, owner=%d), want (0, 1)", c0, c1)
	}
	if got := ns[1].n.Server().Stats()["peerServed"]; got != 1 {
		t.Fatalf("owner served %d forwarded requests, want 1", got)
	}
	if got := ns[0].n.Stats()["peerFetches"]; got != 1 {
		t.Fatalf("non-owner recorded %d peer fetches, want 1", got)
	}

	// Second tier: the fetched body was cached locally, so a rotated
	// copy of the same instance is a local hit with identical bytes.
	resp2, body2 := schedulePost(t, ns[0].base, in.Rotate(1), "C1", nil)
	if v := resp2.Header.Get("X-Ringserve-Cache"); v != "hit" {
		t.Fatalf("repeat verdict %q, want hit", v)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("peer-fetched and locally-cached bodies differ")
	}

	// Loop prevention: a request carrying the forward header must be
	// served where it lands, never re-forwarded — even on the non-owner.
	other := peerOwnedInstance(t, ns[0].n, "B1")
	resp3, body3 := schedulePost(t, ns[0].base, other, "B1", map[string]string{serve.PeerForwardHeader: "test-origin"})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("forward-header request failed: %d %s", resp3.StatusCode, body3)
	}
	if got := ns[0].n.Stats()["peerFetches"]; got != 1 {
		t.Fatalf("forwarded request triggered a re-forward (fetches %d, want still 1)", got)
	}
	if got := ns[0].n.Server().Stats()["peerServed"]; got == 0 {
		t.Fatal("peer-forwarded request not accounted on the receiving node")
	}
}

// TestDegradeToLocal crash-stops the owner inside the breaker-closed
// window and checks graceful degradation: the surviving node's fetch
// fails through the retry envelope and the request is computed locally
// and still succeeds.
func TestDegradeToLocal(t *testing.T) {
	ns := liveNodes(t, 2, serve.Config{Workers: 2})
	in := peerOwnedInstance(t, ns[0].n, "A1")

	ns[1].kill()

	resp, body := schedulePost(t, ns[0].base, in, "A1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request failed: %d %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-Ringserve-Cache"); v != "miss" {
		t.Fatalf("degraded verdict %q, want miss (local compute)", v)
	}
	cs := ns[0].n.Stats()
	if cs["degraded"] == 0 {
		t.Errorf("degraded counter = 0, want >= 1")
	}
	if cs["peerFetchFailures"] == 0 {
		t.Errorf("fetch failures = 0, want >= 1 (the retry envelope ran)")
	}
	if ns[0].n.Server().Stats()["computes"] != 1 {
		t.Errorf("survivor computes = %d, want 1", ns[0].n.Server().Stats()["computes"])
	}

	// The response is cached: repeating the request is now a plain hit,
	// no further peer traffic.
	resp2, _ := schedulePost(t, ns[0].base, in, "A1", nil)
	if v := resp2.Header.Get("X-Ringserve-Cache"); v != "hit" {
		t.Fatalf("post-degrade repeat verdict %q, want hit", v)
	}
}
