package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestTrailingDataRejected sends every body-decoding endpoint a valid
// body followed by something else: a second JSON value or garbage is a
// 400 invalid_request, trailing whitespace is still a legal body.
func TestTrailingDataRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const unit = `{"kind":"unit","m":4,"unit":[9,0,0,3]}`
	endpoints := []struct {
		name string
		path func() string
		body string
	}{
		{"schedule", func() string { return "/v1/schedule" }, `{"instance":` + unit + `,"algorithm":"C1"}`},
		{"optimal", func() string { return "/v1/optimal" }, `{"instance":` + unit + `}`},
		{"compare", func() string { return "/v1/compare" }, `{"instance":` + unit + `,"algorithms":["C1"]}`},
		{"session create", func() string { return "/v1/session" }, `{"m":8}`},
		{"session arrivals", func() string {
			return "/v1/session/" + createSession(t, s, SessionCreateRequest{M: 8}).ID + "/arrivals"
		}, `{"arrivals":[{"t":0,"proc":0,"count":9}]}`},
	}
	trailers := []struct {
		name, tail string
		ok         bool
	}{
		{"second object", `{"algorithm":"B1"}`, false},
		{"garbage", ` garbage`, false},
		{"stray brace", `}`, false},
		{"second array", ` [1]`, false},
		{"number", ` 7`, false},
		{"newline", "\n", true},
		{"whitespace", " \t\r\n ", true},
	}
	for _, ep := range endpoints {
		for _, tr := range trailers {
			t.Run(ep.name+"/"+tr.name, func(t *testing.T) {
				req := httptest.NewRequest(http.MethodPost, ep.path(), strings.NewReader(ep.body+tr.tail))
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				if tr.ok {
					if w.Code != http.StatusOK {
						t.Fatalf("status %d, want 200; body %s", w.Code, w.Body.String())
					}
					return
				}
				if w.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400; body %s", w.Code, w.Body.String())
				}
				if env := decodeBody[apiError](t, w); env.Error.Code != "invalid_request" {
					t.Fatalf("code %q, want invalid_request (message %q)", env.Error.Code, env.Error.Message)
				}
			})
		}
	}
}

// peerCall is one Remote.Fetch invocation.
type peerCall struct {
	endpoint, key string
	req           []byte
}

// countingRemote records every Fetch and declines it, so the request
// is then computed locally.
type countingRemote struct {
	mu    sync.Mutex
	calls []peerCall
}

func (r *countingRemote) Fetch(_ context.Context, endpoint, key string, req []byte) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, peerCall{endpoint, key, bytes.Clone(req)})
	return nil, false
}

func (r *countingRemote) take() []peerCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

// TestPeerBodyOnlyOnMiss checks when the peer request is built and
// offered to a cluster Remote: once per miss, as the canonical request
// with the engine pinned; never on a cache hit; never on a request that
// a peer forwarded.
func TestPeerBodyOnlyOnMiss(t *testing.T) {
	rem := &countingRemote{}
	s := newTestServer(t, Config{Workers: 2, Remote: rem})
	in := unitInstance(t, []int64{0, 5, 0, 0, 2, 1, 0, 3})
	can := in.Canonical()
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	postOK := func(path string, body any, verdict string) {
		t.Helper()
		w := post(t, s, path, body)
		if w.Code != http.StatusOK || w.Header().Get("X-Ringserve-Cache") != verdict {
			t.Fatalf("%s: status %d, cache %q, want 200 %s; body %s",
				path, w.Code, w.Header().Get("X-Ringserve-Cache"), verdict, w.Body.String())
		}
	}
	expectCall := func(endpoint string, want []byte) peerCall {
		t.Helper()
		calls := rem.take()
		if len(calls) != 1 {
			t.Fatalf("%s miss: %d Fetch calls, want 1", endpoint, len(calls))
		}
		if calls[0].endpoint != endpoint || !bytes.Equal(calls[0].req, want) {
			t.Fatalf("%s miss fetched %s with\n%s\nwant\n%s", endpoint, calls[0].endpoint, calls[0].req, want)
		}
		return calls[0]
	}

	req := ScheduleRequest{Instance: in.Rotate(3), Algorithm: "C1"}
	postOK("/v1/schedule", req, "miss")
	call := expectCall("schedule", marshal(ScheduleRequest{Instance: can, Algorithm: "C1", Options: RequestOptions{Engine: "pool"}}))
	if key, err := s.ScheduleKey(req); err != nil || key != call.key {
		t.Fatalf("schedule fetched key %q, ScheduleKey gives %q (%v)", call.key, key, err)
	}

	opt := OptimalRequest{Instance: in, Limits: OptimalLimits{MaxArcs: 1 << 20}}
	postOK("/v1/optimal", opt, "miss")
	expectCall("optimal", marshal(OptimalRequest{Instance: can, Limits: opt.Limits}))

	cmp := CompareRequest{Instance: in.Reflect(), Algorithms: []string{"A1", "C1"}}
	postOK("/v1/compare", cmp, "miss")
	expectCall("compare", marshal(CompareRequest{Instance: can, Algorithms: cmp.Algorithms}))

	// Hits on every endpoint, from other dihedral copies.
	postOK("/v1/schedule", ScheduleRequest{Instance: in.Reflect(), Algorithm: "C1"}, "hit")
	postOK("/v1/optimal", OptimalRequest{Instance: in.Rotate(5), Limits: opt.Limits}, "hit")
	postOK("/v1/compare", CompareRequest{Instance: in.Rotate(1), Algorithms: cmp.Algorithms}, "hit")
	if calls := rem.take(); len(calls) != 0 {
		t.Fatalf("cache hits called Fetch %d times", len(calls))
	}

	// A forwarded miss is answered locally.
	fwd := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		bytes.NewReader(marshal(ScheduleRequest{Instance: in, Algorithm: "A1"})))
	fwd.Header.Set(PeerForwardHeader, "127.0.0.1:1")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, fwd)
	if w.Code != http.StatusOK || w.Header().Get("X-Ringserve-Cache") != "miss" {
		t.Fatalf("forwarded request: status %d, cache %q", w.Code, w.Header().Get("X-Ringserve-Cache"))
	}
	if calls := rem.take(); len(calls) != 0 {
		t.Fatalf("a forwarded request called Fetch %d times", len(calls))
	}
}
