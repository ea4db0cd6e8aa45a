package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	rls "repro"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return srv, svc
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func createSession(t *testing.T, srv *httptest.Server, body string) string {
	t.Helper()
	resp := post(t, srv.URL+"/v1/sessions", body)
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d, body %s", resp.StatusCode, b)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	return info.ID
}

// waitApplied polls until the session's applied counter reaches want (the
// data plane is async: 202 means queued, not applied).
func waitApplied(t *testing.T, srv *httptest.Server, id string, want int64) sessionInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var info sessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.Applied >= want {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s applied %d, want %d", id, info.Applied, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandlerTable pins the wire contract's exact status codes for the
// malformed-config, unknown-session, and over-limit paths — the table
// cmd/rlsd/README.md documents.
func TestHandlerTable(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxSessions: 4, MaxBins: 1 << 12, MaxBatch: 8})
	id := createSession(t, srv, `{"bins": 16, "balls": 32}`)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"malformed json", "POST", "/v1/sessions", `{"bins": `, 400},
		{"unknown field", "POST", "/v1/sessions", `{"bins": 8, "bogus": 1}`, 400},
		{"trailing data", "POST", "/v1/sessions", `{"bins": 8} {}`, 400},
		{"missing bins", "POST", "/v1/sessions", `{}`, 400},
		{"zero bins", "POST", "/v1/sessions", `{"bins": 0}`, 400},
		{"bins over limit", "POST", "/v1/sessions", `{"bins": 8192}`, 400},
		{"negative balls", "POST", "/v1/sessions", `{"bins": 8, "balls": -1}`, 400},
		{"balls over limit", "POST", "/v1/sessions", `{"bins": 1, "balls": 1000000000000}`, 400},
		{"unknown engine", "POST", "/v1/sessions", `{"bins": 8, "engine": "warp"}`, 400},
		{"speeds unsupported", "POST", "/v1/sessions", `{"bins": 8, "speeds": [1, 2]}`, 400},
		{"shards without sharded engine", "POST", "/v1/sessions", `{"bins": 8, "shards": 2}`, 400},
		{"negative shards", "POST", "/v1/sessions", `{"bins": 8, "engine": "sharded", "shards": -1}`, 400},
		{"strict on topology", "POST", "/v1/sessions", `{"bins": 8, "strict": true, "topology": "ring"}`, 400},
		{"sharded strict", "POST", "/v1/sessions", `{"bins": 8, "engine": "sharded", "strict": true}`, 400},
		{"shardedjump topology", "POST", "/v1/sessions", `{"bins": 8, "engine": "shardedjump", "topology": "ring"}`, 400},
		{"torus non-square", "POST", "/v1/sessions", `{"bins": 8, "topology": "torus"}`, 400},
		{"hypercube non-power", "POST", "/v1/sessions", `{"bins": 12, "topology": "hypercube"}`, 400},
		{"unknown topology", "POST", "/v1/sessions", `{"bins": 8, "topology": "petersen"}`, 400},
		{"random-regular over slot limit", "POST", "/v1/sessions", `{"bins": 4096, "topology": "random-17-regular"}`, 400},
		{"one-bin hypercube", "POST", "/v1/sessions", `{"bins": 1, "engine": "jump", "topology": "hypercube"}`, 400},

		{"get unknown session", "GET", "/v1/sessions/s-999", "", 404},
		{"delete unknown session", "DELETE", "/v1/sessions/s-999", "", 404},
		{"events unknown session", "POST", "/v1/sessions/s-999/events", `{"events": [{"op": "add"}]}`, 404},
		{"stream unknown session", "GET", "/v1/sessions/s-999/stream", "", 404},

		{"events malformed", "POST", "/v1/sessions/" + id + "/events", `{"events": [`, 400},
		{"events empty", "POST", "/v1/sessions/" + id + "/events", `{"events": []}`, 400},
		{"events unknown op", "POST", "/v1/sessions/" + id + "/events", `{"events": [{"op": "teleport"}]}`, 400},
		{"events bin out of range", "POST", "/v1/sessions/" + id + "/events", `{"events": [{"op": "add", "bin": 16}]}`, 400},
		{"events negative bin", "POST", "/v1/sessions/" + id + "/events", `{"events": [{"op": "remove", "bin": -1}]}`, 400},
		{"events run without duration", "POST", "/v1/sessions/" + id + "/events", `{"events": [{"op": "run"}]}`, 400},
		{"events negative budget", "POST", "/v1/sessions/" + id + "/events", `{"events": [{"op": "run_to_perfect", "budget": -1}]}`, 400},
		{"events batch too large", "POST", "/v1/sessions/" + id + "/events",
			`{"events": [` + strings.Repeat(`{"op": "add"},`, 8) + `{"op": "add"}]}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			if tc.status >= 400 && !bytes.Contains(body, []byte("error")) {
				t.Errorf("error body missing message: %s", body)
			}
		})
	}
}

// TestCreateAllEngineModes exercises the config→Spec mapping for every
// cell the session layer supports, including topologies and strict ties.
func TestCreateAllEngineModes(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for _, body := range []string{
		`{"bins": 16, "balls": 64}`,
		`{"bins": 16, "balls": 64, "engine": "jump"}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "strict": true}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "topology": "ring"}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "topology": "torus"}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "topology": "hypercube"}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "topology": "expander"}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "topology": "random-4-regular"}`,
	} {
		id := createSession(t, srv, body)
		resp := post(t, srv.URL+"/v1/sessions/"+id+"/events",
			`{"events": [{"op": "add"}, {"op": "remove"}, {"op": "run", "for": 0.05}, {"op": "run_to_perfect"}]}`)
		resp.Body.Close()
		if resp.StatusCode != 202 {
			t.Fatalf("%s: events status %d", body, resp.StatusCode)
		}
		info := waitApplied(t, srv, id, 4)
		if info.Errors != 0 {
			t.Errorf("%s: %d apply errors", body, info.Errors)
		}
		if info.Balls != 64 {
			t.Errorf("%s: balls %d, want 64", body, info.Balls)
		}
		if info.Phase != "perfect" {
			t.Errorf("%s: phase %q after run_to_perfect, want perfect", body, info.Phase)
		}
	}
}

// TestRateLimitBackpressure pins the 429 + Retry-After contract: a
// one-event bucket admits the first post and rejects the second with an
// honest retry hint.
func TestRateLimitBackpressure(t *testing.T) {
	srv, svc := newTestServer(t, Config{EventRate: 0.5, EventBurst: 1})
	id := createSession(t, srv, `{"bins": 8, "balls": 8}`)

	resp := post(t, srv.URL+"/v1/sessions/"+id+"/events", `{"events": [{"op": "add"}]}`)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("first post: status %d, want 202", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/v1/sessions/"+id+"/events", `{"events": [{"op": "add"}]}`)
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("second post: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := svc.Metrics().RejectedRate.Load(); got != 1 {
		t.Errorf("RejectedRate = %d, want 1", got)
	}
}

// TestQueueFullBackpressure fills a depth-2 queue with no applier running
// (white box: the tenant is hand-built) and checks the enqueue path's
// exact rejection.
func TestQueueFullBackpressure(t *testing.T) {
	svc := New(Config{QueueDepth: 2})
	tn := &tenant{
		id:     "s-test",
		cfg:    sessionConfig{Bins: 4},
		sess:   rls.NewSession(4, 1),
		bucket: NewBucket(0, 0),
		broker: newBroker(&svc.metrics.StreamDropped),
		queue:  make(chan batch, 2),
		done:   make(chan struct{}),
	}
	events := []event{{Op: "add"}}
	for i := 0; i < 2; i++ {
		if herr := svc.enqueue(tn, events); herr != nil {
			t.Fatalf("enqueue %d rejected: %+v", i, herr)
		}
	}
	herr := svc.enqueue(tn, events)
	if herr == nil {
		t.Fatal("full queue must reject")
	}
	if herr.status != 429 {
		t.Errorf("status %d, want 429", herr.status)
	}
	if herr.retryAfter <= 0 {
		t.Error("queue-full rejection without a retry hint")
	}
	if got := svc.metrics.RejectedQueue.Load(); got != 1 {
		t.Errorf("RejectedQueue = %d, want 1", got)
	}
}

// TestSessionCap pins the 503 on the MaxSessions limit.
func TestSessionCap(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxSessions: 1})
	createSession(t, srv, `{"bins": 8}`)
	resp := post(t, srv.URL+"/v1/sessions", `{"bins": 8}`)
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503 at the session cap", resp.StatusCode)
	}
}

// TestSSEStream subscribes to the telemetry plane, posts a churn burst,
// and checks the snapshot-then-frames contract; deleting the session must
// end the stream.
func TestSSEStream(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	id := createSession(t, srv, `{"bins": 8, "balls": 16, "seed": 3}`)

	resp, err := http.Get(srv.URL + "/v1/sessions/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	frames := make(chan telemetry, 16)
	go func() {
		defer close(frames)
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var tel telemetry
				if json.Unmarshal([]byte(data), &tel) == nil {
					frames <- tel
				}
			}
		}
	}()
	read := func(what string) telemetry {
		select {
		case tel, ok := <-frames:
			if !ok {
				t.Fatalf("stream closed waiting for %s", what)
			}
			return tel
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	if snap := read("snapshot"); snap.Balls != 16 || snap.Applied != 0 {
		t.Fatalf("snapshot frame %+v, want 16 balls, 0 applied", snap)
	}
	post(t, srv.URL+"/v1/sessions/"+id+"/events",
		`{"events": [{"op": "add", "bin": 0}, {"op": "add", "bin": 0}, {"op": "run_to_perfect"}]}`).Body.Close()
	tel := read("batch frame")
	if tel.Applied != 3 || tel.Balls != 18 {
		t.Fatalf("batch frame %+v, want 3 applied, 18 balls", tel)
	}
	if tel.Phase != "perfect" || tel.Disc >= 1 {
		t.Fatalf("batch frame %+v, want perfect phase", tel)
	}

	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 204 {
		t.Fatalf("delete status %d, want 204", dresp.StatusCode)
	}
	for {
		if _, ok := <-frames; !ok {
			break // deletion closed the broker, ending the stream
		}
	}
}

// TestDrain pins the graceful-shutdown contract: every accepted event
// applies before Drain returns, and the drained service answers 503 on
// both planes.
func TestDrain(t *testing.T) {
	srv, svc := newTestServer(t, Config{})
	var ids []string
	for i := 0; i < 4; i++ {
		id := createSession(t, srv, fmt.Sprintf(`{"bins": 16, "balls": 32, "seed": %d}`, i))
		for j := 0; j < 5; j++ {
			resp := post(t, srv.URL+"/v1/sessions/"+id+"/events",
				`{"events": [{"op": "add"}, {"op": "remove"}, {"op": "run", "for": 0.01}]}`)
			resp.Body.Close()
			if resp.StatusCode != 202 {
				t.Fatalf("events status %d", resp.StatusCode)
			}
		}
		ids = append(ids, id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m := svc.Metrics()
	if acc, app := m.EventsAccepted.Load(), m.EventsApplied.Load(); acc != app || acc != 4*5*3 {
		t.Errorf("accepted %d, applied %d; want both %d — drain must flush every queue", acc, app, 4*5*3)
	}
	if errs := m.ApplyErrors.Load(); errs != 0 {
		t.Errorf("%d apply errors during drain", errs)
	}

	resp := post(t, srv.URL+"/v1/sessions", `{"bins": 8}`)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("create while draining: status %d, want 503", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/v1/sessions/"+ids[0]+"/events", `{"events": [{"op": "add"}]}`)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("events while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 503 {
		t.Errorf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}
}

// TestDeleteDrainsBacklog: events accepted before a DELETE are applied,
// not dropped, and the tenant then answers 404.
func TestDeleteDrainsBacklog(t *testing.T) {
	srv, svc := newTestServer(t, Config{})
	id := createSession(t, srv, `{"bins": 8, "balls": 8}`)
	resp := post(t, srv.URL+"/v1/sessions/"+id+"/events",
		`{"events": [`+strings.Repeat(`{"op": "add"},`, 99)+`{"op": "add"}]}`)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 204 {
		t.Fatalf("delete status %d, want 204", dresp.StatusCode)
	}
	m := svc.Metrics()
	if acc, app := m.EventsAccepted.Load(), m.EventsApplied.Load(); acc != app {
		t.Errorf("accepted %d != applied %d after delete", acc, app)
	}
	gresp, err := http.Get(srv.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != 404 {
		t.Errorf("get after delete: status %d, want 404", gresp.StatusCode)
	}
	if live := m.SessionsLive.Load(); live != 0 {
		t.Errorf("SessionsLive = %d after delete, want 0", live)
	}
}

// TestMetricsEndpoint checks the Prometheus text rendering end to end:
// the series the README catalogues exist and the counters agree with the
// observed traffic.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	id := createSession(t, srv, `{"bins": 8, "balls": 8, "engine": "jump"}`)
	post(t, srv.URL+"/v1/sessions/"+id+"/events",
		`{"events": [{"op": "add"}, {"op": "run_to_perfect"}]}`).Body.Close()
	waitApplied(t, srv, id, 2)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"rlsd_sessions_live 1",
		"rlsd_sessions_created_total 1",
		"rlsd_events_accepted_total 2",
		"rlsd_events_applied_total 2",
		"rlsd_event_apply_errors_total 0",
		`rlsd_events_rejected_total{reason="rate"} 0`,
		`rlsd_moves_total{mode="jump"}`,
		`rlsd_apply_latency_seconds_bucket{le="+Inf"} 1`,
		"rlsd_apply_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The jump tenant executed run_to_perfect from a skewed start, so its
	// per-mode move counter must have advanced.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `rlsd_moves_total{mode="jump"}`) {
			var moves int64
			if _, err := fmt.Sscanf(line, `rlsd_moves_total{mode="jump"} %d`, &moves); err != nil || moves <= 0 {
				t.Errorf("jump move counter %q, want > 0", line)
			}
		}
	}
}

// TestConcurrentPlanes hammers one tenant from parallel writers and
// readers — the race job turns this into the service-layer analogue of
// the Session contract test.
func TestConcurrentPlanes(t *testing.T) {
	srv, svc := newTestServer(t, Config{EventRate: 1e6, EventBurst: 1e6})
	id := createSession(t, srv, `{"bins": 16, "balls": 64}`)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := post(t, srv.URL+"/v1/sessions/"+id+"/events",
					`{"events": [{"op": "add"}, {"op": "remove"}, {"op": "run", "for": 0.001}]}`)
				resp.Body.Close()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(srv.URL + "/v1/sessions/" + id)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if acc, app := m.EventsAccepted.Load(), m.EventsApplied.Load(); acc != app {
		t.Errorf("accepted %d != applied %d", acc, app)
	}
	if errs := m.ApplyErrors.Load(); errs != 0 {
		t.Errorf("%d apply errors", errs)
	}
}
