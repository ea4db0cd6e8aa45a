package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	rls "repro"
	"repro/internal/rng"
	"repro/internal/service"
)

// serve-churn: internal/service in-process behind an httptest loopback
// server, driven over HTTP/JSON. Each batch is addsPerBatch adds at
// generated bins, as many random removes, and one short run, so the
// service, Session churn and persist do the work and no long move run
// happens. Phases: an open loop at a fixed offered rate with periodic
// checkpoints, a closed-loop saturation phase, and a restart through
// snapshots, followed by a few more batches.

const (
	addsPerBatch       = 5
	runFor             = 0.01
	batchEvents        = 2*addsPerBatch + 1 // the batch size of internal/serviceload too
	window             = 64 * batchEvents   // saturation: events in flight at most
	postRestartBatches = 2                  // per tenant

	// tenantEventRate is the open loop's offered load per tenant, in
	// events per second: the per-session rate of the repository's CI
	// service gate (rlsweep -serviceload -slrate 50, checked by
	// scripts/check_service.sh). 64 tenants make 3200 events/s, about
	// 291 batches/s.
	tenantEventRate = 50

	// checkpoints is how many SaveSnapshots calls the open loop makes,
	// evenly spaced. rlsd checkpoints every 30 s by default
	// (-snapshot-interval), longer than the open loop lasts, so a service
	// running that long sees at most one; every run takes exactly one,
	// mid-phase.
	checkpoints = 1
)

type serveConfig struct {
	tenants, bins, ballsPerBin int
	rate                       float64 // open-loop batches per second
	stateDir                   string
}

func serveConfigFor(o options) serveConfig {
	c := serveConfig{tenants: 64, bins: 1024, ballsPerBin: 16, stateDir: o.stateDir}
	if o.tiny {
		c.tenants, c.bins, c.ballsPerBin = 4, 64, 4
	}
	c.rate = float64(c.tenants) * tenantEventRate / batchEvents
	return c
}

// tenantLog is everything the benchmark sent one tenant, in order: the
// add bins of each accepted batch, and how many batches preceded the
// restart. The replay check rebuilds the tenant from it.
type tenantLog struct {
	id       string
	seed     uint64
	jump     bool
	adds     [][addsPerBatch]int
	restart  int
	gen      *rng.RNG
	before   sessionStats
	after    sessionStats
	created  bool
	restored bool
}

type sessionStats struct {
	Time        float64 `json:"time"`
	Balls       int     `json:"balls"`
	Moves       int64   `json:"moves"`
	Activations int64   `json:"activations"`
}

func (l *tenantLog) nextBody(bins int) ([addsPerBatch]int, []byte) {
	var adds [addsPerBatch]int
	var b bytes.Buffer
	b.WriteString(`{"events":[`)
	for i := range adds {
		adds[i] = l.gen.Intn(bins)
		fmt.Fprintf(&b, `{"op":"add","bin":%d},`, adds[i])
	}
	for i := 0; i < addsPerBatch; i++ {
		b.WriteString(`{"op":"remove"},`)
	}
	fmt.Fprintf(&b, `{"op":"run","for":%g}]}`, runFor)
	return adds, b.Bytes()
}

// daemon is one service instance behind its loopback server.
type daemon struct {
	svc *service.Service
	srv *httptest.Server
}

func newServiceConfig(c serveConfig) service.Config {
	// The token bucket runs on every request but never binds.
	return service.Config{MaxSessions: 2 * c.tenants, EventRate: 1e12, EventBurst: 1e12, StateDir: c.stateDir}
}

func startDaemon(c serveConfig) *daemon {
	svc := service.New(newServiceConfig(c))
	return &daemon{svc: svc, srv: httptest.NewServer(svc.Handler())}
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.svc.Drain(ctx) // a timeout only delays teardown; the checks ran before
	d.srv.Close()
}

// newClient sends the load over at most procs connections.
func newClient(procs int) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// post sends one JSON body and decodes the reply into out (if non-nil).
func post(cl *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, nil
}

func get(cl *http.Client, url string, out any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// createTenants creates the tenants, alternating direct and jump, and
// returns the mean create latency in ms.
func createTenants(c serveConfig, o options, cl *http.Client, d *daemon, tr *tracer, rep *report) ([]*tenantLog, float64) {
	logs := make([]*tenantLog, c.tenants)
	var total time.Duration
	for i := range logs {
		l := &tenantLog{seed: cellSeed(o.seed, 5000, i), jump: i%2 == 1, gen: rng.New(cellSeed(o.seed, 6000, i))}
		engine := "direct"
		if l.jump {
			engine = "jump"
		}
		body := fmt.Sprintf(`{"bins":%d,"balls":%d,"seed":%d,"engine":%q}`, c.bins, c.bins*c.ballsPerBin, l.seed, engine)
		var info struct {
			ID string `json:"id"`
		}
		t0 := time.Now()
		code, err := post(cl, d.srv.URL+"/v1/sessions", []byte(body), &info)
		total += time.Since(t0)
		tr.record("service.create", -1, t0, time.Now(), 1)
		rep.attempted++
		if err != nil || code != http.StatusCreated {
			rep.fail("create tenant %d: status %d, %v", i, code, err)
		} else {
			l.id, l.created = info.ID, true
		}
		logs[i] = l
	}
	return logs, float64(total) / 1e6 / float64(c.tenants)
}

// sendBatch posts the tenant's next batch and logs it if accepted. It
// returns the reply's queue depth and the time the reply arrived.
func sendBatch(cl *http.Client, base string, c serveConfig, l *tenantLog, rep *report) (int64, time.Time, bool) {
	adds, body := l.nextBody(c.bins)
	var ack struct {
		QueueDepth int64 `json:"queue_depth"`
	}
	code, err := post(cl, base+"/v1/sessions/"+l.id+"/events", body, &ack)
	done := time.Now()
	if err != nil || code != http.StatusAccepted {
		rep.fail("POST events to %s: status %d, %v", l.id, code, err)
		return 0, done, false
	}
	l.adds = append(l.adds, adds)
	return ack.QueueDepth, done, true
}

// waitUntil sleeps until two milliseconds before t, then yields until t,
// so the generator's own lateness stays far below one request's latency.
// A sleep on a 2-vCPU x86-64 VM overshoots by 0.8 ms at p50 and 1.1 ms
// at p99, so a one-millisecond margin made the p99 lateness longer than
// the median ack.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// waitApplied blocks until every accepted event has been applied.
func waitApplied(m *service.Metrics, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for m.EventsApplied.Load() < m.EventsAccepted.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func liveLogs(logs []*tenantLog) []*tenantLog {
	var out []*tenantLog
	for _, l := range logs {
		if l.created {
			out = append(out, l)
		}
	}
	return out
}

// runServe runs the whole serve-churn workload and fills rep.
func runServe(o options, dur time.Duration, tr *tracer, rep *report) {
	c := serveConfigFor(o)
	if err := os.MkdirAll(c.stateDir, 0o755); err != nil {
		rep.fail("state dir: %v", err)
		return
	}
	defer os.RemoveAll(c.stateDir)
	cl := newClient(o.procs)
	defer cl.CloseIdleConnections()

	// Set-up: a fresh service with every tenant created over HTTP, five
	// times; the last one serves the phases.
	var setups []float64
	var d *daemon
	var logs []*tenantLog
	var createMs float64
	for i := 0; i < 5; i++ {
		if d != nil {
			d.stop()
			runtime.GC() // the stopped service's tenants must not inflate the peak RSS
		}
		t0 := time.Now()
		d = startDaemon(c)
		logs, createMs = createTenants(c, o, cl, d, tr, rep)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("service.create_ms", createMs, "ms")
	runtime.GC() // start the phases from the same heap whatever set-up left behind
	live := liveLogs(logs)
	if len(live) == 0 {
		d.stop()
		return
	}

	openLoop(c, cl, d, live, dur/2, tr, rep)
	saturate(c, o, cl, d, live, dur*2/5, tr, rep)
	d2 := restart(c, cl, d, live, tr, rep)
	for b := 0; b < postRestartBatches; b++ {
		for _, l := range live {
			rep.attempted++
			sendBatch(cl, d2.srv.URL, c, l, rep)
		}
	}
	if !waitApplied(d2.svc.Metrics(), 30*time.Second) {
		rep.fail("post-restart events were not all applied")
	}
	readStats(cl, d2.srv.URL, live, false, rep)
	checkCounters(cl, d2.srv.URL, "after restart", rep)
	d2.stop()

	for _, l := range live {
		rep.attempted++
		runtime.GC() // one replay session at a time, so replays do not set the peak RSS
		if err := verifyTenant(c, l); err != nil {
			rep.fail("%v", err)
		}
	}
}

// openLoop is one generator goroutine sending round-robin at c.rate
// batches per second, each request timed from when it was due, while a
// second goroutine checkpoints every tenant as rlsd -snapshot-interval
// does; the period scales with the phase so every run takes the same
// number of checkpoints.
func openLoop(c serveConfig, cl *http.Client, d *daemon, live []*tenantLog, dur time.Duration, tr *tracer, rep *report) {
	phase := tr.begin("serve.open_loop", -1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ckpt [][2]time.Time
	var ckptErrs []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(dur / (checkpoints + 1))
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t0 := time.Now()
				_, err := d.svc.SaveSnapshots(c.stateDir)
				ckpt = append(ckpt, [2]time.Time{t0, time.Now()})
				if err != nil {
					ckptErrs = append(ckptErrs, err)
				}
			}
		}
	}()

	var acks, late []float64
	var qmax int64
	interval := time.Duration(float64(time.Second) / c.rate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= dur {
			break
		}
		waitUntil(due)
		sent := time.Now()
		rep.attempted++
		q, done, ok := sendBatch(cl, d.srv.URL, c, live[k%len(live)], rep)
		tr.record("service.post", phase, sent, done, batchEvents)
		if !ok {
			continue
		}
		late = append(late, float64(sent.Sub(due))/1e6)
		acks = append(acks, float64(done.Sub(due))/1e6)
		qmax = max(qmax, q)
	}
	close(stop)
	wg.Wait()
	tr.end(phase, int64(len(acks)))
	for _, err := range ckptErrs {
		rep.fail("checkpoint: %v", err)
	}
	var ckptMs []float64
	for _, iv := range ckpt {
		tr.record("persist.checkpoint", phase, iv[0], iv[1], int64(len(live)))
		ckptMs = append(ckptMs, float64(iv[1].Sub(iv[0]))/1e6)
	}

	if !waitApplied(d.svc.Metrics(), 30*time.Second) {
		rep.fail("open-loop events were not all applied")
	}
	if len(acks) > 0 {
		rep.setAs("latency_ms_p50", "ack_ms_p50", median(acks), "ms")
		rep.setAs("service.ack_ms_p99", "ack_ms_p99", quantile(acks, 0.99), "ms")
		rep.set("service.generator_late_ms_p50", median(late), "ms")
		rep.set("service.generator_late_ms_p99", quantile(late, 0.99), "ms")
		rep.set("service.open_loop_requests", float64(len(acks)), "count")
	}
	rep.set("service.queue_depth_max", float64(qmax), "batches")
	if len(ckptMs) > 0 {
		rep.set("persist.checkpoint_ms", median(ckptMs), "ms")
	}
	sc, err := scrapeMetrics(cl, d.srv.URL)
	if err != nil {
		rep.fail("scrape /metrics: %v", err)
		return
	}
	rep.setAs("service.apply_ms_p50", "apply_ms_p50", sc.applyQuantile(0.5)*1e3, "ms")
	rep.setAs("service.apply_ms_p99", "apply_ms_p99", sc.applyQuantile(0.99)*1e3, "ms")
	// Set-up sends no event batches, so the histogram holds exactly the
	// open loop's batches. Their mean enqueue-to-applied time, per event
	// of a batch, is the service's cost of an event under light load.
	if n := sc.vals["rlsd_apply_latency_seconds_count"]; n > 0 {
		rep.setAs("ns_per_unit", "apply_ns_per_event", sc.vals["rlsd_apply_latency_seconds_sum"]/n*1e9/batchEvents, "ns")
	}
}

// saturate is the closed loop: procs goroutines on contiguous, disjoint
// shares of the tenants, each sending as soon as fewer than window
// events are waiting to be applied, so the service sets the pace.
// Tenants alternate direct and jump, so every share holds the same mix
// and the scheduler cannot shift the engine mix of the applied events.
func saturate(c serveConfig, o options, cl *http.Client, d *daemon, live []*tenantLog, dur time.Duration, tr *tracer, rep *report) {
	phase := tr.begin("serve.saturation", -1)
	before, err := scrapeMetrics(cl, d.srv.URL)
	if err != nil {
		rep.fail("scrape /metrics: %v", err)
	}
	m := d.svc.Metrics()
	applied0 := m.EventsApplied.Load()
	start := time.Now()
	deadline := start.Add(dur)
	reps := make([]*report, o.procs)
	var wg sync.WaitGroup
	for g := 0; g < o.procs; g++ {
		reps[g] = newReport()
		mine := live[g*len(live)/o.procs : (g+1)*len(live)/o.procs]
		wg.Add(1)
		go func(r *report) {
			defer wg.Done()
			for k := 0; len(mine) > 0 && time.Now().Before(deadline); k++ {
				for m.EventsAccepted.Load()-m.EventsApplied.Load() >= window {
					time.Sleep(50 * time.Microsecond)
				}
				r.attempted++
				sendBatch(cl, d.srv.URL, c, mine[k%len(mine)], r)
			}
		}(reps[g])
	}
	// Throughput is sampled in windows of a twentieth of the phase; their
	// median shrugs off short stalls of the host.
	var rates []float64
	for prev, t := applied0, start; time.Until(deadline) > dur/40; {
		time.Sleep(dur / 20)
		cur, now := m.EventsApplied.Load(), time.Now()
		rates = append(rates, float64(cur-prev)/now.Sub(t).Seconds())
		prev, t = cur, now
	}
	wg.Wait()
	if !waitApplied(m, 30*time.Second) {
		rep.fail("saturation events were not all applied")
	}
	tr.end(phase, m.EventsApplied.Load()-applied0)
	for _, r := range reps {
		rep.merge(r, nil)
	}
	rep.setAs("ops_per_s", "events_per_s", median(rates), "1/s")
	// The phase's mean enqueue-to-applied time: queueing under saturation.
	after, err := scrapeMetrics(cl, d.srv.URL)
	if err != nil {
		rep.fail("scrape /metrics: %v", err)
		return
	}
	const sum, count = "rlsd_apply_latency_seconds_sum", "rlsd_apply_latency_seconds_count"
	if n := after.vals[count] - before.vals[count]; n > 0 {
		rep.set("service.apply_mean_ms", (after.vals[sum]-before.vals[sum])/n*1e3, "ms")
	}
}

// restart drains the service, checkpoints it, and brings a new one up
// from the snapshots. Tenant stats are read between the drain and the
// snapshot, outside the timed window.
func restart(c serveConfig, cl *http.Client, d *daemon, live []*tenantLog, tr *tracer, rep *report) *daemon {
	rs := tr.begin("service.restart", -1)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := d.svc.Drain(ctx)
	cancel()
	drain := time.Since(t0)
	tr.record("service.drain", rs, t0, t0.Add(drain), 1)
	if err != nil {
		rep.fail("drain: %v", err)
	}
	readStats(cl, d.srv.URL, live, true, rep)
	checkCounters(cl, d.srv.URL, "before restart", rep)
	for _, l := range live {
		l.restart = len(l.adds)
	}

	t1 := time.Now()
	saved, err := d.svc.SaveSnapshots(c.stateDir)
	tr.record("persist.save", rs, t1, time.Now(), int64(saved))
	if err != nil || saved != len(live) {
		rep.fail("snapshot: saved %d of %d: %v", saved, len(live), err)
	}
	svc := service.New(newServiceConfig(c))
	t2 := time.Now()
	restored, err := svc.RestoreSnapshots(c.stateDir)
	restoreDur := time.Since(t2)
	tr.record("service.restore", rs, t2, t2.Add(restoreDur), int64(restored))
	d2 := &daemon{svc: svc, srv: httptest.NewServer(svc.Handler())}
	restartS := drain.Seconds() + time.Since(t1).Seconds()
	tr.end(rs, 1)
	d.srv.Close()

	rep.attempted++
	if err != nil || restored != len(live) {
		rep.fail("restore: %d of %d tenants: %v", restored, len(live), err)
	}
	rep.setAs("service.restart_s", "restart_s", restartS, "s")
	rep.set("service.restore_ms", float64(restoreDur)/1e6, "ms")
	return d2
}

// readStats records every tenant's stats as the service reports them.
func readStats(cl *http.Client, base string, live []*tenantLog, before bool, rep *report) {
	for _, l := range live {
		var st sessionStats
		if err := get(cl, base+"/v1/sessions/"+l.id, &st); err != nil {
			rep.fail("stats of %s: %v", l.id, err)
			continue
		}
		if before {
			l.before = st
		} else {
			l.after, l.restored = st, true
		}
	}
}

// checkCounters scrapes /metrics and checks that every accepted event
// was applied and none failed or was refused.
func checkCounters(cl *http.Client, base, when string, rep *report) {
	sc, err := scrapeMetrics(cl, base)
	rep.attempted++
	if err != nil {
		rep.fail("scrape /metrics %s: %v", when, err)
		return
	}
	acc, app := sc.vals["rlsd_events_accepted_total"], sc.vals["rlsd_events_applied_total"]
	errs, rej := sc.vals["rlsd_event_apply_errors_total"], sc.vals["rlsd_events_rejected_total"]
	if acc != app || errs != 0 || rej != 0 {
		rep.fail("%s: accepted %g, applied %g, apply errors %g, rejected %g", when, acc, app, errs, rej)
	}
	rep.set("service.accepted", rep.metrics["service.accepted"].Value+acc, "count")
	rep.set("service.applied", rep.metrics["service.applied"].Value+app, "count")
	rep.set("service.apply_errors", rep.metrics["service.apply_errors"].Value+errs, "count")
	rep.set("service.rejected", rep.metrics["service.rejected"].Value+rej, "count")
}

// replaySession rebuilds a tenant as the service created it.
func replaySession(c serveConfig, l *tenantLog) *rls.Session {
	var opts []rls.SessionOption
	if l.jump {
		opts = append(opts, rls.WithSessionEngineMode(rls.JumpEngine))
	}
	s := rls.NewSession(c.bins, l.seed, opts...)
	for i := 0; i < c.bins*c.ballsPerBin; i++ {
		s.AddBallRandom()
	}
	return s
}

// applyBatch applies one logged batch the way the service's applier does.
func applyBatch(s *rls.Session, adds [addsPerBatch]int) error {
	for _, b := range adds {
		if err := s.AddBall(b); err != nil {
			return err
		}
	}
	for i := 0; i < addsPerBatch; i++ {
		if _, err := s.RemoveRandomBall(); err != nil {
			return err
		}
	}
	return s.RunFor(runFor)
}

// verifyTenant replays the tenant's log on a scratch Session and checks
// that moves, activations, balls and time match what the service
// reported, both before and after the restart.
func verifyTenant(c serveConfig, l *tenantLog) error {
	s := replaySession(c, l)
	for i := 0; i <= len(l.adds); i++ {
		if i == l.restart {
			if err := sameStats(s, l.before); err != nil {
				return fmt.Errorf("tenant %s before restart: %w", l.id, err)
			}
		}
		if i == len(l.adds) {
			break
		}
		if err := applyBatch(s, l.adds[i]); err != nil {
			return fmt.Errorf("tenant %s replay: %w", l.id, err)
		}
	}
	if !l.restored {
		return fmt.Errorf("tenant %s: no stats after restart", l.id)
	}
	if err := sameStats(s, l.after); err != nil {
		return fmt.Errorf("tenant %s after restart: %w", l.id, err)
	}
	return nil
}

func statsOf(s *rls.Session) sessionStats {
	st := s.Stats()
	return sessionStats{Time: st.Time, Balls: st.Balls, Moves: st.Moves, Activations: st.Activations}
}

func sameStats(s *rls.Session, want sessionStats) error {
	if got := statsOf(s); got != want {
		return fmt.Errorf("replay %+v, service %+v", got, want)
	}
	return nil
}

// scrape is a parsed Prometheus text exposition: plain samples by name
// (labelled samples summed per name) and the apply-latency histogram.
type scrape struct {
	vals map[string]float64
	le   []float64 // bucket upper bounds, +Inf last
	cum  []float64 // cumulative counts
}

func scrapeMetrics(cl *http.Client, base string) (scrape, error) {
	sc := scrape{vals: map[string]float64{}}
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	s := bufio.NewScanner(resp.Body)
	for s.Scan() {
		line := s.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return sc, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := key
		if br := strings.IndexByte(key, '{'); br >= 0 {
			name = key[:br]
			if name == "rlsd_apply_latency_seconds_bucket" {
				le := strings.TrimSuffix(strings.TrimPrefix(key[br:], `{le="`), `"}`)
				bound := math.Inf(1)
				if le != "+Inf" {
					if bound, err = strconv.ParseFloat(le, 64); err != nil {
						return sc, fmt.Errorf("bucket %q: %w", key, err)
					}
				}
				sc.le = append(sc.le, bound)
				sc.cum = append(sc.cum, v)
				continue
			}
		}
		sc.vals[name] += v
	}
	return sc, s.Err()
}

// applyQuantile estimates the q-quantile (in seconds) from the bucket
// counts, interpolating linearly inside the bucket that holds it — the
// estimate the service's own Histogram.Quantile makes.
func (sc scrape) applyQuantile(q float64) float64 {
	if len(sc.cum) == 0 || sc.cum[len(sc.cum)-1] == 0 {
		return 0
	}
	target := q * sc.cum[len(sc.cum)-1]
	lower, prev := 0.0, 0.0
	for i, c := range sc.cum {
		upper := sc.le[i]
		if math.IsInf(upper, 1) {
			upper = 2 * sc.le[i-1]
		}
		if c > prev && c >= target {
			return lower + (upper-lower)*(target-prev)/(c-prev)
		}
		lower, prev = upper, c
	}
	return sc.le[len(sc.le)-2] * 2
}
