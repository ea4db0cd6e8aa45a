// Command rlsd serves RLS load-balancing sessions as a multi-tenant
// daemon: an HTTP/JSON control plane creates and churns sessions, an SSE
// telemetry plane streams their convergence, and /metrics exposes the
// fleet in Prometheus text format.
//
// Examples:
//
//	rlsd -addr :8080
//	rlsd -addr :8080 -max-sessions 10000 -rate 200 -burst 400
//	curl -d '{"bins": 64, "balls": 640, "engine": "jump"}' localhost:8080/v1/sessions
//	curl -N localhost:8080/v1/sessions/s-1/stream
//
// On SIGINT/SIGTERM the daemon stops admitting work, applies every
// already-accepted event, and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// daemonConfig collects the flag values so run is testable without a
// process boundary.
type daemonConfig struct {
	addr         string
	maxSessions  int
	maxBins      int
	maxBatch     int
	queueDepth   int
	rate         float64
	burst        float64
	drainTimeout time.Duration
	stateDir     string
	snapInterval time.Duration
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.maxSessions, "max-sessions", 4096, "maximum live sessions (503 beyond)")
	flag.IntVar(&cfg.maxBins, "max-bins", 1<<20, "maximum bins per session")
	flag.IntVar(&cfg.maxBatch, "max-batch", 4096, "maximum events per POST batch")
	flag.IntVar(&cfg.queueDepth, "queue", 256, "per-session event queue depth (429 when full)")
	flag.Float64Var(&cfg.rate, "rate", 1000, "per-session event admission rate, events/sec (0 = unlimited)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-session admission burst (0 = 2x rate)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max time to flush queued events on shutdown")
	flag.StringVar(&cfg.stateDir, "state-dir", "", "tenant snapshot directory: restore on boot, snapshot on shutdown (empty = no durability)")
	flag.DurationVar(&cfg.snapInterval, "snapshot-interval", 30*time.Second, "periodic tenant snapshot interval with -state-dir (0 = shutdown-only)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"rlsd hosts RLS balancing sessions behind an HTTP/JSON control plane\n"+
				"with SSE telemetry and Prometheus metrics.\n\n"+
				"Usage: rlsd [flags]   (see cmd/rlsd/README.md for the API reference)\n\n"+
				"Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	svc := service.New(service.Config{
		MaxSessions: cfg.maxSessions,
		MaxBins:     cfg.maxBins,
		MaxBatch:    cfg.maxBatch,
		QueueDepth:  cfg.queueDepth,
		EventRate:   cfg.rate,
		EventBurst:  cfg.burst,
		StateDir:    cfg.stateDir,
	})
	if err := run(svc, cfg, nil, logger); err != nil {
		logger.Fatalf("rlsd: %v", err)
	}
}

// run serves svc on cfg.addr until SIGINT/SIGTERM, then drains: the
// service stops admitting sessions and events (503), every queued event
// is applied, SSE streams are closed, and the listener shuts down. If
// ready is non-nil it receives the bound address once listening (the
// shutdown test dials it).
func run(svc *service.Service, cfg daemonConfig, ready chan<- string, logger *log.Logger) error {
	if cfg.stateDir != "" {
		n, err := svc.RestoreSnapshots(cfg.stateDir)
		if err != nil {
			logger.Printf("rlsd: restore from %s: %v", cfg.stateDir, err)
		}
		logger.Printf("rlsd: restored %d sessions from %s", n, cfg.stateDir)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Canceling baseCtx on shutdown propagates into request contexts,
	// ending otherwise-unbounded SSE streams so Shutdown can complete.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Handler:     svc.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	// Catch signals before announcing readiness: a SIGTERM that arrives
	// between the two must drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Printf("rlsd: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Periodic tenant snapshots bound how much history a crash (as
	// opposed to a clean SIGTERM) can lose.
	if cfg.stateDir != "" && cfg.snapInterval > 0 {
		ticker := time.NewTicker(cfg.snapInterval)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if n, err := svc.SaveSnapshots(cfg.stateDir); err != nil {
					logger.Printf("rlsd: periodic snapshot (%d saved): %v", n, err)
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case sig := <-sigc:
		logger.Printf("rlsd: received %v; draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := svc.Drain(ctx)
	m := svc.Metrics()
	logger.Printf("rlsd: drained (%d/%d events applied, %d sessions live)",
		m.EventsApplied.Load(), m.EventsAccepted.Load(), m.SessionsLive.Load())
	if cfg.stateDir != "" {
		// The appliers have finished, so these snapshots capture every
		// accepted event; the next boot resumes byte-identically.
		n, err := svc.SaveSnapshots(cfg.stateDir)
		if err != nil {
			logger.Printf("rlsd: shutdown snapshot: %v", err)
			if drainErr == nil {
				drainErr = err
			}
		}
		logger.Printf("rlsd: saved %d session snapshots to %s", n, cfg.stateDir)
	}

	cancelBase() // end SSE streams
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		srv.Close()
		if drainErr == nil {
			drainErr = err
		}
	}
	<-errc // Serve has returned http.ErrServerClosed
	return drainErr
}
