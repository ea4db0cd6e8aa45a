package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Metrics is the daemon's observability surface, rendered in the
// Prometheus text exposition format by Render (the /metrics endpoint).
// It is hand-rolled — counters and gauges are plain atomics, the
// histogram a fixed-bucket atomic array — because the repo takes no
// dependencies; the output is scrape-compatible with any Prometheus
// collector and is what the ServiceLoad harness parses for its p50/p99
// cells.
type Metrics struct {
	// Control-plane counters/gauges.
	SessionsLive     atomic.Int64 // gauge: tenants currently hosted
	SessionsCreated  atomic.Int64
	SessionsDeleted  atomic.Int64
	SessionsRestored atomic.Int64 // tenants resurrected from snapshots at boot

	// Data-plane counters. Accepted counts events admitted past the rate
	// limiter into a tenant queue; Applied counts events the tenant worker
	// executed; ApplyErrors counts events whose execution failed (e.g. a
	// remove on an empty session). RejectedRate/Queue/Drain partition the
	// 429/503 rejections by cause.
	EventsAccepted atomic.Int64
	EventsApplied  atomic.Int64
	ApplyErrors    atomic.Int64
	RejectedRate   atomic.Int64
	RejectedQueue  atomic.Int64
	RejectedDrain  atomic.Int64

	// StreamDropped counts telemetry frames dropped on slow SSE
	// subscribers (the broker never blocks the applier on a reader).
	StreamDropped atomic.Int64

	// MovesByMode tracks protocol-move throughput per engine mode,
	// indexed by rls.EngineMode (direct, jump).
	MovesByMode [2]atomic.Int64

	// Apply is the event→apply latency histogram: enqueue (server accept)
	// to applied-by-worker, observed once per batch.
	Apply Histogram
}

// applyBuckets are the histogram's upper bounds in seconds: a coarse
// exponential grid from 100µs to 5s. The p99 gate in CI reads these, so
// the grid must straddle the ceiling it enforces.
var applyBuckets = [numApplyBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

const numApplyBuckets = 15

// Histogram is a fixed-bucket latency histogram with atomic counts;
// bucket i counts observations ≤ applyBuckets[i], the last slot is +Inf.
type Histogram struct {
	counts [numApplyBuckets + 1]atomic.Int64
	sumNs  atomic.Int64
	count  atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(applyBuckets) && s > applyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// Render writes every series in the Prometheus text format. The metric
// catalogue is documented in cmd/rlsd/README.md — keep the two in sync.
func (m *Metrics) Render(w io.Writer) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("rlsd_sessions_live", "Tenant sessions currently hosted.", m.SessionsLive.Load())
	counter("rlsd_sessions_created_total", "Sessions created over the daemon lifetime.", m.SessionsCreated.Load())
	counter("rlsd_sessions_deleted_total", "Sessions deleted over the daemon lifetime.", m.SessionsDeleted.Load())
	counter("rlsd_sessions_restored_total", "Sessions restored from snapshots at boot.", m.SessionsRestored.Load())
	counter("rlsd_events_accepted_total", "Events admitted into tenant queues.", m.EventsAccepted.Load())
	counter("rlsd_events_applied_total", "Events applied by tenant workers.", m.EventsApplied.Load())
	counter("rlsd_event_apply_errors_total", "Events whose application failed.", m.ApplyErrors.Load())

	fmt.Fprintf(w, "# HELP rlsd_events_rejected_total Events rejected before enqueue, by cause.\n")
	fmt.Fprintf(w, "# TYPE rlsd_events_rejected_total counter\n")
	fmt.Fprintf(w, "rlsd_events_rejected_total{reason=\"rate\"} %d\n", m.RejectedRate.Load())
	fmt.Fprintf(w, "rlsd_events_rejected_total{reason=\"queue\"} %d\n", m.RejectedQueue.Load())
	fmt.Fprintf(w, "rlsd_events_rejected_total{reason=\"drain\"} %d\n", m.RejectedDrain.Load())

	counter("rlsd_stream_dropped_total", "Telemetry frames dropped on slow SSE subscribers.", m.StreamDropped.Load())

	fmt.Fprintf(w, "# HELP rlsd_moves_total Protocol moves executed, by engine mode.\n")
	fmt.Fprintf(w, "# TYPE rlsd_moves_total counter\n")
	for mode, name := range [...]string{"direct", "jump"} {
		fmt.Fprintf(w, "rlsd_moves_total{mode=%q} %d\n", name, m.MovesByMode[mode].Load())
	}

	fmt.Fprintf(w, "# HELP rlsd_apply_latency_seconds Event batch enqueue-to-applied latency.\n")
	fmt.Fprintf(w, "# TYPE rlsd_apply_latency_seconds histogram\n")
	var cum int64
	for i, le := range applyBuckets {
		cum += m.Apply.counts[i].Load()
		fmt.Fprintf(w, "rlsd_apply_latency_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.Apply.counts[len(applyBuckets)].Load()
	fmt.Fprintf(w, "rlsd_apply_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "rlsd_apply_latency_seconds_sum %g\n", float64(m.Apply.sumNs.Load())/1e9)
	fmt.Fprintf(w, "rlsd_apply_latency_seconds_count %d\n", cum)
}
