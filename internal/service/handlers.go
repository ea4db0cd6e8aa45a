package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	rls "repro"
)

// httpError pairs a message with the exact status the wire contract
// promises (cmd/rlsd/README.md documents the full table; the handler
// tests pin it).
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

// sessionConfig is the POST /v1/sessions body. Engine, strict and
// topology decode into an rls.Spec; Balls seeds the session with that
// many uniformly placed balls (deterministic in Seed).
type sessionConfig struct {
	Bins     int    `json:"bins"`
	Balls    int    `json:"balls,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Strict   bool   `json:"strict,omitempty"`
	Topology string `json:"topology,omitempty"`
}

// sessionInfo is the GET /v1/sessions[/{id}] body: the echoed config plus
// the live telemetry snapshot and queue depth.
type sessionInfo struct {
	ID         string        `json:"id"`
	Config     sessionConfig `json:"config"`
	QueueDepth int64         `json:"queue_depth"`
	Accepted   int64         `json:"accepted"`
	telemetry
}

// maxSlotsPerBin bounds a random-regular topology's neighbor slots
// (bins·d) at this many per MaxBins bin, and maxBallsPerBin a session's
// initial balls, which the create places one by one.
const (
	maxSlotsPerBin = 16
	maxBallsPerBin = 16
)

// normalize checks a sessionConfig against the service limits and
// decodes it into the rls.Spec it names, returning the canonical config
// (engine "direct" spelled out, topology "complete" as ""). Whether the
// Spec is legal is Spec.NewSession's call; every rejection is a 400.
func (s *Service) normalize(cfg sessionConfig) (sessionConfig, rls.Spec, *httpError) {
	bad := func(format string, args ...any) (sessionConfig, rls.Spec, *httpError) {
		return sessionConfig{}, rls.Spec{}, &httpError{status: 400, msg: fmt.Sprintf(format, args...)}
	}
	if cfg.Bins > s.cfg.MaxBins {
		return bad("bins %d exceeds the per-session limit %d", cfg.Bins, s.cfg.MaxBins)
	}
	if cfg.Balls < 0 {
		return bad("balls must be >= 0 (got %d)", cfg.Balls)
	}
	if limit := maxBallsPerBin * s.cfg.MaxBins; cfg.Balls > limit {
		return bad("balls %d exceeds the per-session limit %d", cfg.Balls, limit)
	}

	spec := rls.Spec{Strict: cfg.Strict}
	switch cfg.Engine {
	case "", "direct":
		cfg.Engine = "direct"
	case "jump":
		spec.Mode = rls.JumpEngine
	case "sharded":
		spec.Mode = rls.ShardedEngine // Spec.NewSession answers ErrSessionSpec
	case "shardedjump":
		return bad("engine shardedjump was removed; use jump")
	default:
		return bad("unknown engine %q (want direct|jump)", cfg.Engine)
	}
	if cfg.Topology == "complete" {
		cfg.Topology = ""
	}
	if cfg.Topology != "" {
		t, err := rls.NamedTopology(cfg.Topology, cfg.Bins, cfg.Seed)
		if err != nil {
			return bad("%v", err)
		}
		spec.Topology = t
		// A random-regular graph stores bins·d neighbor slots, built by
		// an O(bins·d) shuffle: bound them like the bin count.
		var d int
		if _, err := fmt.Sscanf(cfg.Topology, "random-%d-regular", &d); err == nil && cfg.Bins > 0 && d > maxSlotsPerBin*s.cfg.MaxBins/cfg.Bins {
			return bad("topology %s on %d bins exceeds the per-session limit of %d neighbor slots", cfg.Topology, cfg.Bins, maxSlotsPerBin*s.cfg.MaxBins)
		}
	}
	return cfg, spec, nil
}

// validateEvents checks a batch at the door so the applier's switch is
// total and bin indices never reach the Session out of range.
func (s *Service) validateEvents(t *tenant, events []event) *httpError {
	if len(events) == 0 {
		return &httpError{status: 400, msg: "events must be non-empty"}
	}
	if len(events) > s.cfg.MaxBatch {
		return &httpError{status: 400, msg: fmt.Sprintf("batch of %d events exceeds the limit %d", len(events), s.cfg.MaxBatch)}
	}
	for i, ev := range events {
		switch ev.Op {
		case "add", "remove":
			if ev.Bin != nil && (*ev.Bin < 0 || *ev.Bin >= t.cfg.Bins) {
				return &httpError{status: 400, msg: fmt.Sprintf("events[%d]: bin %d out of range [0,%d)", i, *ev.Bin, t.cfg.Bins)}
			}
		case "run":
			if !(ev.For > 0) || math.IsInf(ev.For, 0) {
				return &httpError{status: 400, msg: fmt.Sprintf("events[%d]: run needs a positive finite \"for\" duration", i)}
			}
		case "run_to_perfect":
			if ev.Budget < 0 {
				return &httpError{status: 400, msg: fmt.Sprintf("events[%d]: budget must be >= 0", i)}
			}
		default:
			return &httpError{status: 400, msg: fmt.Sprintf("events[%d]: unknown op %q (want add|remove|run|run_to_perfect)", i, ev.Op)}
		}
	}
	return nil
}

// Handler mounts the control, telemetry, and metrics planes on a fresh
// mux. Routes and status codes are documented in cmd/rlsd/README.md.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	if herr.retryAfter > 0 {
		secs := int(math.Ceil(herr.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, herr.status, map[string]string{"error": herr.msg})
}

// decodeStrict decodes one JSON body, rejecting unknown fields and
// trailing garbage — config typos fail loudly instead of silently
// defaulting.
func decodeStrict(r *http.Request, v any) *httpError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &httpError{status: 400, msg: "malformed request body: " + err.Error()}
	}
	if dec.More() {
		return &httpError{status: 400, msg: "malformed request body: trailing data"}
	}
	return nil
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg sessionConfig
	if herr := decodeStrict(r, &cfg); herr != nil {
		writeError(w, herr)
		return
	}
	t, herr := s.createSession(cfg)
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (t *tenant) info() sessionInfo {
	return sessionInfo{
		ID:         t.id,
		Config:     t.cfg,
		QueueDepth: t.queued.Load(),
		Accepted:   t.accepted.Load(),
		telemetry:  t.telemetrySnapshot(),
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	tenants := s.snapshotTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].id < tenants[j].id })
	infos := make([]sessionInfo, len(tenants))
	for i, t := range tenants {
		infos[i] = t.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos, "count": len(infos)})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(r.PathValue("id"))
	if t == nil {
		writeError(w, &httpError{status: 404, msg: fmt.Sprintf("unknown session %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, t.info())
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.deleteSession(r.PathValue("id")) {
		writeError(w, &httpError{status: 404, msg: fmt.Sprintf("unknown session %q", r.PathValue("id"))})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(r.PathValue("id"))
	if t == nil {
		writeError(w, &httpError{status: 404, msg: fmt.Sprintf("unknown session %q", r.PathValue("id"))})
		return
	}
	var req struct {
		Events []event `json:"events"`
	}
	if herr := decodeStrict(r, &req); herr != nil {
		writeError(w, herr)
		return
	}
	if herr := s.validateEvents(t, req.Events); herr != nil {
		writeError(w, herr)
		return
	}
	if herr := s.enqueue(t, req.Events); herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"queued":      len(req.Events),
		"queue_depth": t.queued.Load(),
	})
}

// handleStream is the SSE telemetry plane: one snapshot frame on
// subscribe, then one frame per applied batch, until the client leaves or
// the session is deleted.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(r.PathValue("id"))
	if t == nil {
		writeError(w, &httpError{status: 404, msg: fmt.Sprintf("unknown session %q", r.PathValue("id"))})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{status: 500, msg: "streaming unsupported by this connection"})
		return
	}
	ch, cancel := t.broker.subscribe()
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	write := func(frame []byte) bool {
		if _, err := fmt.Fprintf(w, "event: telemetry\ndata: %s\n\n", frame); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// The subscribe-then-snapshot order guarantees no gap: any batch
	// applied after the snapshot is also delivered as a frame.
	if !write(t.telemetryFrame()) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return // session deleted
			}
			if !write(frame) {
				return
			}
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Render(w)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
