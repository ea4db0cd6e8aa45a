package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/spectest"
)

// TestSpecValidateAgreesWithConstruction walks the spectest cross-product
// through POST /v1/sessions: every case the JSON config can spell (no
// unknown engine mode, no speeds, no shard count or
// epoch, and only the torus or hypercube parameter the bin count fixes)
// answers 201 exactly when Spec.NewSession accepts it, and otherwise 400
// with its message — ErrSessionSpec for every sharded case. The cases
// over Validate's random-regular slot ceiling go to a service whose bin
// limit is high enough that its own slot check passes them on, so the
// rejection they get is Validate's.
func TestSpecValidateAgreesWithConstruction(t *testing.T) {
	small := New(Config{MaxSessions: 4, MaxBins: 64})
	big := New(Config{MaxSessions: 4, MaxBins: 1 << 22})
	smallH, bigH := small.Handler(), big.Handler()
	for _, c := range spectest.Cases() {
		svc, h := small, smallH
		if c.N > 64 {
			svc, h = big, bigH
		}
		engine, ok := c.EngineName()
		topology, named := c.TopologyName()
		if !ok || !named || c.Spec.Speeds != nil || c.Spec.Shards != 0 || c.Spec.ShardEpoch != 0 {
			continue
		}
		body, err := json.Marshal(sessionConfig{
			Bins: c.N, Balls: c.N, Seed: spectest.Seed, Engine: engine,
			Strict: c.Spec.Strict, Topology: topology,
		})
		if err != nil {
			t.Fatal(err)
		}
		code, msg, id := create(h, body)
		want := c.SessionWant()
		switch {
		case want == nil && code != 201:
			t.Errorf("%s: status %d (%s), want 201", c.Name, code, msg)
		case want != nil && (code != 400 || msg != want.Error()):
			t.Errorf("%s: status %d (%s), want 400 (%v)", c.Name, code, msg, want)
		}
		if code == 201 && !svc.deleteSession(id) {
			t.Fatalf("%s: created session %s is gone", c.Name, id)
		}
	}
}

// TestCreateResourceShapes pins, at the default limits, the rejections
// that keep a create from exhausting the process: a random-regular degree
// whose bins·d neighbor slots exceed the limit (the pairing would need
// terabytes), the one-bin hypercube, whose bin has no neighbor to sample,
// and a ball count above 16 per MaxBins bin (the create places balls one
// by one until memory runs out). Each answers 400 and leaves the tenant
// count at zero.
func TestCreateResourceShapes(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	for _, c := range []struct{ body, want string }{
		{`{"bins": 1048576, "topology": "random-1048574-regular"}`,
			"topology random-1048574-regular on 1048576 bins exceeds the per-session limit of 16777216 neighbor slots"},
		{`{"bins": 1048576, "engine": "jump", "topology": "random-18-regular"}`,
			"topology random-18-regular on 1048576 bins exceeds the per-session limit of 16777216 neighbor slots"},
		{`{"bins": 1, "engine": "jump", "topology": "hypercube"}`,
			"rls: hypercube dim 0 leaves its one bin no neighbor to sample"},
		{`{"bins": 1, "topology": "hypercube"}`,
			"rls: hypercube dim 0 leaves its one bin no neighbor to sample"},
		{`{"bins": 1, "balls": 1000000000000}`,
			"balls 1000000000000 exceeds the per-session limit 16777216"},
	} {
		code, msg, _ := create(h, []byte(c.body))
		if code != 400 || msg != c.want {
			t.Errorf("%s: status %d (%s), want 400 (%s)", c.body, code, msg, c.want)
		}
	}
	if n := svc.metrics.SessionsLive.Load(); n != 0 {
		t.Fatalf("%d live sessions after rejected creates", n)
	}
}

// create POSTs body to /v1/sessions and returns the status, the error
// message of a rejection, and the id of a created session.
func create(h http.Handler, body []byte) (code int, msg, id string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
	var resp struct {
		Error string `json:"error"`
		ID    string `json:"id"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec.Code, resp.Error, resp.ID
}

// FuzzCreateSession: arbitrary bodies on POST /v1/sessions answer 201,
// 400 or 503 — never a panic, never another status — and after every
// non-201 answer the live tenant count, reserved slots included, is back
// where it was. At MaxBins 256 the ball limit is 4096, so no body makes
// the create slow.
func FuzzCreateSession(f *testing.F) {
	for _, body := range []string{
		`{"bins": 16, "balls": 32}`,
		`{"bins": 16, "balls": 64, "engine": "jump", "topology": "torus"}`,
		`{"bins": 9, "engine": "jump", "topology": "random-3-regular"}`,
		`{"bins": 16, "engine": "jump", "topology": "random-16-regular"}`,
		`{"bins": 16, "engine": "jump", "strict": true, "topology": "expander"}`,
		`{"bins": 12, "topology": "hypercube"}`,
		`{"bins": 1, "topology": "hypercube"}`,
		`{"bins": 1, "engine": "jump", "topology": "hypercube"}`,
		`{"bins": 256, "engine": "jump", "topology": "random-254-regular"}`,
		`{"bins": 8, "engine": "sharded", "shards": -1}`,
		`{"bins": 8, "engine": "jump", "shards": 4}`,
		`{"bins": 8, "speeds": [1, 2]}`,
		`{"bins": 256, "balls": 4097}`,
		`{"bins": 0}`,
		`{"bins": -3, "topology": "torus"}`,
		`{"bins": 8, "engine": "shardedjump"}`,
		`{"bins": `,
	} {
		f.Add([]byte(body))
	}
	svc := New(Config{MaxSessions: 8, MaxBins: 256})
	h := svc.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	live := func() (int64, int) {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.metrics.SessionsLive.Load(), len(svc.tenants)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		gauge, slots := live()
		code, msg, id := create(h, body)
		switch code {
		case 201:
			if !svc.deleteSession(id) {
				t.Fatalf("created session %q is gone", id)
			}
		case 400, 503:
			if g, s := live(); g != gauge || s != slots {
				t.Fatalf("status %d (%s) left %d live, %d slots; want %d, %d", code, msg, g, s, gauge, slots)
			}
		default:
			t.Fatalf("status %d (%s)", code, msg)
		}
	})
}
