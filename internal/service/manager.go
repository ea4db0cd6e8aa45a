// Package service is the multi-tenant serving layer behind cmd/rlsd: a
// session manager hosting thousands of concurrent rls.Session tenants,
// an HTTP/JSON control plane (create/churn/delete), an SSE telemetry
// plane, per-tenant token-bucket rate limiting, bounded event queues
// with 429 + Retry-After backpressure, graceful drain, and a
// Prometheus-text /metrics endpoint.
//
// The tenancy model is one applier goroutine per session: handlers
// validate and enqueue event batches, the tenant's worker applies them
// in order against its Session and publishes a telemetry frame per
// batch. Concurrent stats reads (GET, SSE snapshots) hit the same
// Session directly — safe by the Session concurrency contract — so
// reads never queue behind writes. internal/service/README.md documents
// the architecture; cmd/rlsd/README.md the wire API.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rls "repro"
	"repro/internal/core"
)

// Config sizes the service's admission control. The zero value gets
// production-shaped defaults from withDefaults; cmd/rlsd exposes each
// knob as a flag.
type Config struct {
	// MaxSessions caps live tenants; creates beyond it get 503.
	// Default 4096.
	MaxSessions int
	// MaxBins caps a single tenant's bin count (engine state is O(bins)).
	// Default 1<<20.
	MaxBins int
	// MaxBatch caps events per POST body. Default 4096.
	MaxBatch int
	// QueueDepth is each tenant's bounded event-batch queue; a full queue
	// answers 429 + Retry-After. Default 256 batches.
	QueueDepth int
	// EventRate and EventBurst parameterize each tenant's token bucket in
	// events/sec; 0 rate disables limiting. Defaults 1000 and 2·rate.
	EventRate  float64
	EventBurst float64
	// StateDir, when non-empty, is where tenant snapshots live: DELETE
	// removes the departing tenant's snapshot file, and cmd/rlsd points
	// SaveSnapshots/RestoreSnapshots here. Empty means no durability.
	StateDir string

	// now is the test clock hook; nil means time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 4096
	}
	if c.MaxBins == 0 {
		c.MaxBins = 1 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4096
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.EventRate == 0 {
		c.EventRate = 1000
	}
	if c.EventBurst == 0 {
		c.EventBurst = 2 * c.EventRate
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Service hosts the tenant map. Create with New, mount Handler, and on
// shutdown call Drain to stop intake and let every queued event apply.
type Service struct {
	cfg     Config
	metrics Metrics

	mu       sync.Mutex
	tenants  map[string]*tenant
	nextID   uint64
	draining bool
	workers  sync.WaitGroup
}

// New returns a Service with the given limits (zero-value fields take
// defaults).
func New(cfg Config) *Service {
	return &Service{cfg: cfg.withDefaults(), tenants: make(map[string]*tenant)}
}

// Metrics exposes the live counters — the same state /metrics renders —
// for in-process callers (tests, the load harness's zero-loss check).
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Draining reports whether Drain has begun (intake is closed).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// event is one wire event; see cmd/rlsd/README.md for the schema. Bin is
// a pointer so "absent" (pick a random bin) is distinguishable from 0.
type event struct {
	Op     string  `json:"op"`
	Bin    *int    `json:"bin,omitempty"`
	For    float64 `json:"for,omitempty"`
	Budget int64   `json:"budget,omitempty"`
}

// batch is one accepted POST body, stamped at enqueue so the worker can
// observe the event→apply latency.
type batch struct {
	events   []event
	enqueued time.Time
}

// tenant binds one rls.Session to its queue, limiter, telemetry broker,
// and applier goroutine.
type tenant struct {
	id   string
	cfg  sessionConfig // normalized creation config, echoed by GET
	sess *rls.Session

	bucket *Bucket
	broker *broker
	queue  chan batch

	qmu    sync.Mutex // guards closed + sends into queue
	closed bool

	accepted    atomic.Int64
	applied     atomic.Int64
	applyErrors atomic.Int64
	queued      atomic.Int64 // batches currently in the queue

	lastMoves int64         // worker-only: per-mode move-throughput delta base
	done      chan struct{} // closed when the worker exits
}

// createSession validates cfg, builds the Session, and starts its
// applier. The *httpError return carries the exact status the control
// plane answers with (400 config, 503 capacity/drain).
func (s *Service) createSession(cfg sessionConfig) (*tenant, *httpError) {
	norm, spec, herr := s.normalize(cfg)
	if herr != nil {
		return nil, herr
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.RejectedDrain.Add(1)
		return nil, &httpError{status: 503, msg: "service is draining"}
	}
	if len(s.tenants) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, &httpError{status: 503, msg: fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions)}
	}
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	// Reserve the slot before the (possibly slow) engine construction so
	// the lock never covers simulation work.
	s.tenants[id] = nil
	s.mu.Unlock()

	sess, err := spec.NewSession(norm.Bins, norm.Seed)
	if err != nil {
		s.mu.Lock()
		delete(s.tenants, id)
		s.mu.Unlock()
		return nil, &httpError{status: 400, msg: err.Error()}
	}
	for i := 0; i < norm.Balls; i++ {
		sess.AddBallRandom()
	}

	t := &tenant{
		id:     id,
		cfg:    norm,
		sess:   sess,
		bucket: newBucketAt(s.cfg.EventRate, s.cfg.EventBurst, s.cfg.now),
		broker: newBroker(&s.metrics.StreamDropped),
		queue:  make(chan batch, s.cfg.QueueDepth),
		done:   make(chan struct{}),
	}
	s.mu.Lock()
	s.tenants[id] = t
	s.mu.Unlock()

	s.metrics.SessionsCreated.Add(1)
	s.metrics.SessionsLive.Add(1)
	s.workers.Add(1)
	go t.worker(&s.metrics, &s.workers)
	return t, nil
}

// lookup returns the tenant or nil (a reserved-but-unbuilt slot reads as
// absent).
func (s *Service) lookup(id string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[id]
}

// snapshotTenants returns the live tenants in insertion-id order-free
// map iteration; callers sort if they need stable output.
func (s *Service) snapshotTenants() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// enqueue admits one validated batch into the tenant's queue, spending
// len(events) rate-limit tokens first. Rejections carry the exact HTTP
// status and a Retry-After hint.
func (s *Service) enqueue(t *tenant, events []event) *httpError {
	if s.Draining() {
		s.metrics.RejectedDrain.Add(1)
		return &httpError{status: 503, msg: "service is draining"}
	}
	if ok, retry := t.bucket.Take(float64(len(events))); !ok {
		s.metrics.RejectedRate.Add(1)
		return &httpError{status: 429, msg: "rate limit exceeded", retryAfter: retry}
	}
	b := batch{events: events, enqueued: s.cfg.now()}
	t.qmu.Lock()
	defer t.qmu.Unlock()
	if t.closed {
		return &httpError{status: 404, msg: fmt.Sprintf("session %s is gone", t.id)}
	}
	select {
	case t.queue <- b:
		t.queued.Add(1)
		t.accepted.Add(int64(len(events)))
		s.metrics.EventsAccepted.Add(int64(len(events)))
		return nil
	default:
		s.metrics.RejectedQueue.Add(1)
		// The queue drains at the bucket's admission rate at worst; one
		// batch-interval is an honest refill hint.
		retry := time.Second
		if s.cfg.EventRate > 0 {
			retry = time.Duration(float64(len(events)) / s.cfg.EventRate * float64(time.Second))
		}
		return &httpError{status: 429, msg: "event queue full", retryAfter: retry}
	}
}

// deleteSession tears a tenant down: close its queue, wait for the
// applier to drain what was already accepted, close the telemetry
// broker. Events accepted before the DELETE are applied, not dropped —
// same contract as the whole-service drain.
func (s *Service) deleteSession(id string) bool {
	s.mu.Lock()
	t := s.tenants[id]
	if t == nil {
		s.mu.Unlock()
		return false
	}
	delete(s.tenants, id)
	s.mu.Unlock()

	t.closeQueue()
	<-t.done
	t.broker.close()
	removeSnapshot(s.cfg.StateDir, id)
	s.metrics.SessionsDeleted.Add(1)
	s.metrics.SessionsLive.Add(-1)
	return true
}

// Drain gracefully shuts the data plane down: intake closes (new
// sessions and events answer 503), every tenant queue is closed, and
// Drain blocks until all appliers finish their accepted backlog or ctx
// expires. The SIGTERM path in cmd/rlsd calls this before the HTTP
// server's Shutdown, so in-flight work completes and clients see clean
// rejections rather than connection resets.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			tenants = append(tenants, t)
		}
	}
	s.mu.Unlock()

	for _, t := range tenants {
		t.closeQueue()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		var pending int64
		for _, t := range tenants {
			pending += t.queued.Load()
		}
		return fmt.Errorf("service: drain timed out with %d batches pending", pending)
	}
	for _, t := range tenants {
		t.broker.close()
	}
	return nil
}

// closeQueue stops intake for this tenant; idempotent.
func (t *tenant) closeQueue() {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.queue)
	}
}

// worker is the tenant's applier goroutine: batches apply in accepted
// order, each followed by one latency observation, one per-mode move
// accounting delta, and one telemetry frame. It exits when the queue is
// closed and drained (DELETE or service drain).
func (t *tenant) worker(m *Metrics, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(t.done)
	for b := range t.queue {
		for _, ev := range b.events {
			if err := t.apply(ev); err != nil {
				t.applyErrors.Add(1)
				m.ApplyErrors.Add(1)
			}
		}
		t.queued.Add(-1)
		t.applied.Add(int64(len(b.events)))
		m.EventsApplied.Add(int64(len(b.events)))
		m.Apply.Observe(time.Since(b.enqueued))
		moves := t.sess.Moves()
		m.MovesByMode[t.sess.Mode()].Add(moves - t.lastMoves)
		t.lastMoves = moves
		t.broker.publish(t.telemetryFrame)
	}
}

// apply executes one event against the Session. Ops were validated at
// POST time, so the switch is total; per-event failures (removing from
// an empty session, running with no balls) are runtime conditions the
// caller counts, not programming errors.
func (t *tenant) apply(ev event) error {
	switch ev.Op {
	case "add":
		if ev.Bin == nil {
			t.sess.AddBallRandom()
			return nil
		}
		return t.sess.AddBall(*ev.Bin)
	case "remove":
		if ev.Bin == nil {
			_, err := t.sess.RemoveRandomBall()
			return err
		}
		return t.sess.RemoveBall(*ev.Bin)
	case "run":
		return t.sess.RunFor(ev.For)
	case "run_to_perfect":
		_, err := t.sess.RunUntilPerfect(ev.Budget)
		return err
	}
	return fmt.Errorf("service: unvalidated op %q", ev.Op)
}

// telemetry is one SSE frame / stats body: the load-and-discrepancy view
// of the tenant plus its apply counters.
type telemetry struct {
	SessionID   string  `json:"session_id"`
	Time        float64 `json:"time"`
	Balls       int     `json:"balls"`
	Disc        float64 `json:"disc"`
	MinLoad     int     `json:"min_load"`
	MaxLoad     int     `json:"max_load"`
	Moves       int64   `json:"moves"`
	Activations int64   `json:"activations"`
	Phase       string  `json:"phase"`
	Applied     int64   `json:"applied"`
	Errors      int64   `json:"errors"`
}

func (t *tenant) telemetrySnapshot() telemetry {
	st := t.sess.Stats()
	min, max := 0, 0
	for i, l := range t.sess.Loads() {
		if i == 0 || l < min {
			min = l
		}
		if i == 0 || l > max {
			max = l
		}
	}
	return telemetry{
		SessionID:   t.id,
		Time:        st.Time,
		Balls:       st.Balls,
		Disc:        st.Disc,
		MinLoad:     min,
		MaxLoad:     max,
		Moves:       st.Moves,
		Activations: st.Activations,
		Phase:       phaseOf(st.Balls, t.cfg.Bins, st.Disc),
		Applied:     t.applied.Load(),
		Errors:      t.applyErrors.Load(),
	}
}

func (t *tenant) telemetryFrame() []byte {
	frame, err := json.Marshal(t.telemetrySnapshot())
	if err != nil { // a struct of scalars cannot fail to marshal
		panic(err)
	}
	return frame
}

// phaseOf names the §6 phase of the discrepancy (core.PhaseOf); an
// empty session is its own phase.
func phaseOf(balls, bins int, disc float64) string {
	if balls == 0 {
		return "empty"
	}
	return core.PhaseOf(bins, disc).String()
}
