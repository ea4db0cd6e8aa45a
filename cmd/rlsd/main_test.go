package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSIGTERMDrain boots the daemon in-process, loads it with sessions
// and event batches, delivers a real SIGTERM, and verifies the graceful
// drain contract: run returns nil, every accepted event was applied, and
// nothing errored.
func TestSIGTERMDrain(t *testing.T) {
	svc := service.New(service.Config{})
	cfg := daemonConfig{addr: "127.0.0.1:0", drainTimeout: 30 * time.Second}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(svc, cfg, ready, log.New(io.Discard, "", 0))
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	}

	const sessions, batches = 8, 5
	for i := 0; i < sessions; i++ {
		body := fmt.Sprintf(`{"bins": 32, "balls": 128, "seed": %d, "engine": %q}`,
			i, [...]string{"direct", "jump"}[i%2])
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 201 {
			t.Fatalf("create: status %d", resp.StatusCode)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for j := 0; j < batches; j++ {
			resp, err := http.Post(base+"/v1/sessions/"+info.ID+"/events", "application/json",
				strings.NewReader(`{"events": [{"op": "add"}, {"op": "remove"}, {"op": "run", "for": 0.01}]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 202 {
				t.Fatalf("events: status %d", resp.StatusCode)
			}
		}
	}
	// Hold an SSE stream open across the shutdown: Drain must not hang on
	// a live subscriber, and the daemon must close the stream to exit.
	stream, err := http.Get(base + "/v1/sessions/s-1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit within 60s of SIGTERM")
	}

	m := svc.Metrics()
	acc, app := m.EventsAccepted.Load(), m.EventsApplied.Load()
	if want := int64(sessions * batches * 3); acc != want {
		t.Errorf("accepted %d events, want %d", acc, want)
	}
	if acc != app {
		t.Errorf("accepted %d != applied %d — SIGTERM drain dropped events", acc, app)
	}
	if errs := m.ApplyErrors.Load(); errs != 0 {
		t.Errorf("%d apply errors", errs)
	}
	if _, err := io.ReadAll(stream.Body); err == nil {
		// EOF (nil error) is the expected clean close of the SSE stream.
		_ = err
	}
}
