package serviceload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// The service load study: N concurrent tenants each streaming E events/sec
// of churn through the real HTTP control plane (internal/service behind an
// httptest server — full JSON decode, rate-limit, queue, applier, metrics
// path; only the TCP listener is loopback). It answers the serving
// question ROADMAP item 2 poses: can one daemon host thousands of live
// RLS sessions with bounded event→apply latency and zero loss?
//
// The gates CI enforces via scripts/check_service.sh:
//
//   - zero dropped or errored events: accepted == applied, apply errors 0,
//     and no 429/503 rejections (each batch pairs adds with removes, adds
//     first, over a pre-seeded population, so every event is applicable);
//   - an event→apply p99 ceiling, read from the daemon's own /metrics
//     histogram — the harness scrapes and parses the Prometheus text
//     rather than peeking at internals, so the exposition format is
//     exercised end to end.

// Config parameterizes RunServiceLoad.
type Config struct {
	// Sessions is the tenant count; engine modes round-robin over
	// direct/jump. Defaults to 64.
	Sessions int
	// EventsPerSec is each tenant's target churn rate. Defaults to 50.
	EventsPerSec float64
	// Duration is how long the generators post. Defaults to 2s.
	Duration time.Duration
	// Bins is each tenant's bin count (balls start at 2*Bins). Defaults
	// to 64.
	Bins int
	// BatchSize is the events per POST (rounded up to an odd 2k+1: k adds,
	// k removes, one short run). Defaults to 11.
	BatchSize int
	// Seed fixes the per-tenant session seeds. Defaults to 1.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.EventsPerSec <= 0 {
		c.EventsPerSec = 50
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Bins <= 0 {
		c.Bins = 64
	}
	if c.BatchSize < 3 {
		c.BatchSize = 11
	}
	return c
}

// Result is the study's outcome plus the latency quantiles
// parsed from the daemon's /metrics exposition.
type Result struct {
	Sessions   int
	Accepted   int64
	Applied    int64
	Errors     int64         // apply errors (must be 0)
	Rejected   int64         // 429/503 event rejections (must be 0)
	Elapsed    time.Duration // post start to fully drained
	Throughput float64       // applied events/sec over Elapsed
	P50, P99   time.Duration // event→apply latency from /metrics
}

// Points returns the result as BENCH-style cells. Names are stable
// regardless of the study's size parameters so check_bench_names.sh can
// track them across PRs.
func (r Result) Points() []Point {
	return []Point{
		{Name: "ServiceLoad/apply/p50", NsPerOp: float64(r.P50)},
		{Name: "ServiceLoad/apply/p99", NsPerOp: float64(r.P99)},
		{Name: "ServiceLoad/throughput", NsPerOp: safeNsPerEvent(r),
			EventsPerSec: r.Throughput, Errors: r.Errors + r.Rejected},
	}
}

func safeNsPerEvent(r Result) float64 {
	if r.Applied == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Applied)
}

// Point is one recorded cell of the study.
type Point struct {
	Name         string
	NsPerOp      float64
	EventsPerSec float64
	Errors       int64
}

// RunServiceLoad hosts a service in-process, drives it over real HTTP,
// waits for the backlog to drain, and scrapes /metrics for the verdict.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// Admission headroom: the study gates on zero rejections, so the
	// per-tenant bucket runs at 4x the offered rate (the generators pace
	// themselves; the bucket is exercised, not saturated).
	svc := service.New(service.Config{
		MaxSessions: cfg.Sessions,
		EventRate:   4 * cfg.EventsPerSec,
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * cfg.Sessions,
		MaxIdleConnsPerHost: 4 * cfg.Sessions,
	}}
	defer client.CloseIdleConnections()

	modes := [...]string{"direct", "jump"}
	ids := make([]string, cfg.Sessions)
	for i := range ids {
		body := fmt.Sprintf(`{"bins": %d, "balls": %d, "seed": %d, "engine": %q}`,
			cfg.Bins, 2*cfg.Bins, cfg.Seed+uint64(i), modes[i%len(modes)])
		resp, err := client.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			return Result{}, err
		}
		var info struct {
			ID string `json:"id"`
		}
		err = jsonDecode(resp, &info)
		if err != nil {
			return Result{}, fmt.Errorf("create session %d: %w", i, err)
		}
		ids[i] = info.ID
	}

	k := (cfg.BatchSize - 1) / 2
	var b strings.Builder
	b.WriteString(`{"events": [`)
	for i := 0; i < k; i++ {
		b.WriteString(`{"op": "add"}, `)
	}
	for i := 0; i < k; i++ {
		b.WriteString(`{"op": "remove"}, `)
	}
	b.WriteString(`{"op": "run", "for": 0.002}]}`)
	batchBody := b.String()
	perBatch := 2*k + 1
	interval := time.Duration(float64(perBatch) / cfg.EventsPerSec * float64(time.Second))

	var postErrs atomic.Int64
	var badStatus atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			// Stagger generator phases across one interval so 1000 tenants
			// don't synchronize their POSTs.
			time.Sleep(interval * time.Duration(i) / time.Duration(len(ids)))
			deadline := start.Add(cfg.Duration)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				resp, err := client.Post(srv.URL+"/v1/sessions/"+id+"/events",
					"application/json", strings.NewReader(batchBody))
				if err != nil {
					postErrs.Add(1)
				} else {
					if resp.StatusCode != 202 {
						badStatus.Add(1)
					}
					drainBody(resp)
				}
				if rest := interval - time.Since(t0); rest > 0 {
					time.Sleep(rest)
				}
			}
		}(i, id)
	}
	wg.Wait()
	if n := postErrs.Load(); n > 0 {
		return Result{}, fmt.Errorf("%d transport errors posting events", n)
	}

	// Drain: wait until every accepted event is applied.
	m := svc.Metrics()
	drainDeadline := time.Now().Add(30 * time.Second)
	for m.EventsApplied.Load() < m.EventsAccepted.Load() {
		if time.Now().After(drainDeadline) {
			return Result{}, fmt.Errorf("backlog did not drain: %d/%d applied",
				m.EventsApplied.Load(), m.EventsAccepted.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	p50, p99, err := scrapeApplyQuantiles(client, srv.URL)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Sessions: cfg.Sessions,
		Accepted: m.EventsAccepted.Load(),
		Applied:  m.EventsApplied.Load(),
		Errors:   m.ApplyErrors.Load(),
		Rejected: m.RejectedRate.Load() + m.RejectedQueue.Load() + m.RejectedDrain.Load() + badStatus.Load(),
		Elapsed:  elapsed,
		P50:      p50,
		P99:      p99,
	}
	res.Throughput = float64(res.Applied) / elapsed.Seconds()
	return res, nil
}

// scrapeApplyQuantiles GETs /metrics and recovers p50/p99 from the
// rlsd_apply_latency_seconds histogram by the usual Prometheus bucket
// interpolation.
func scrapeApplyQuantiles(client *http.Client, base string) (p50, p99 time.Duration, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	type bucket struct {
		le  float64
		cum int64
	}
	var buckets []bucket
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `rlsd_apply_latency_seconds_bucket{le="`)
		if !ok {
			continue
		}
		leStr, cntStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			return 0, 0, fmt.Errorf("malformed histogram line %q", line)
		}
		le := math.Inf(1)
		if leStr != "+Inf" {
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				return 0, 0, fmt.Errorf("bad bucket bound in %q: %w", line, err)
			}
		}
		cum, err := strconv.ParseInt(cntStr, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad bucket count in %q: %w", line, err)
		}
		buckets = append(buckets, bucket{le, cum})
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if len(buckets) == 0 {
		return 0, 0, fmt.Errorf("no rlsd_apply_latency_seconds buckets in /metrics")
	}
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, 0, fmt.Errorf("empty apply-latency histogram (no batches applied?)")
	}
	quantile := func(q float64) time.Duration {
		target := q * float64(total)
		lower, prevCum := 0.0, int64(0)
		for _, b := range buckets {
			if float64(b.cum) >= target && b.cum > prevCum {
				upper := b.le
				if math.IsInf(upper, 1) {
					upper = 2 * lower
				}
				frac := (target - float64(prevCum)) / float64(b.cum-prevCum)
				return time.Duration((lower + (upper-lower)*frac) * float64(time.Second))
			}
			prevCum = b.cum
			if !math.IsInf(b.le, 1) {
				lower = b.le
			}
		}
		return time.Duration(lower * float64(time.Second))
	}
	return quantile(0.50), quantile(0.99), nil
}

func jsonDecode(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func drainBody(resp *http.Response) {
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// ServiceLoadTable renders the study for the text output.
func Table(res Result, cfg Config) *harness.Table {
	cfg = cfg.withDefaults()
	tb := harness.NewTable("SVC", "multi-tenant service load",
		"sessions", "accepted", "applied", "errors", "rejected", "ev/s", "p50", "p99")
	tb.Addf(res.Sessions, res.Accepted, res.Applied, res.Errors, res.Rejected,
		fmt.Sprintf("%.0f", res.Throughput),
		res.P50.Round(time.Microsecond).String(),
		res.P99.Round(time.Microsecond).String())
	tb.Note("%d sessions x %.0f ev/s for %v, bins=%d batch=%d seed=%d; NumCPU=%d GOMAXPROCS=%d",
		cfg.Sessions, cfg.EventsPerSec, cfg.Duration, cfg.Bins, cfg.BatchSize, cfg.Seed,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	tb.Note("p50/p99 are event batch enqueue-to-applied latencies scraped from /metrics")
	return tb
}
