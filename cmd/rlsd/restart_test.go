package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// bootDaemon starts run() in-process, logging to logw, and returns the
// base URL and the exit channel.
func bootDaemon(t *testing.T, svc *service.Service, cfg daemonConfig, logw io.Writer) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(svc, cfg, ready, log.New(logw, "", 0))
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil
	}
}

func sigterm(t *testing.T, done chan error) {
	t.Helper()
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
}

// TestRestartRestoresTenants is the durability end-to-end: a daemon with
// -state-dir is populated, terminated, and rebooted; the second boot
// hosts the same tenants with identical state, and an SSE subscriber
// against a restored tenant sees the consistent snapshot-then-frames
// stream. A sharded tenant file in the directory, written before
// sessions lost the sharded engine, is skipped with a logged typed error
// rather than failing the boot.
func TestRestartRestoresTenants(t *testing.T) {
	dir := t.TempDir()
	cfg := daemonConfig{addr: "127.0.0.1:0", drainTimeout: 30 * time.Second, stateDir: dir}

	svc1 := service.New(service.Config{StateDir: dir})
	base, done := bootDaemon(t, svc1, cfg, io.Discard)

	ids := make([]string, 0, 2)
	for i, engine := range [...]string{"direct", "jump"} {
		body := fmt.Sprintf(`{"bins": 32, "balls": 96, "seed": %d, "engine": %q}`, i+1, engine)
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, info.ID)
		resp, err = http.Post(base+"/v1/sessions/"+info.ID+"/events", "application/json",
			strings.NewReader(`{"events": [{"op": "run", "for": 1.5}, {"op": "add"}, {"op": "remove"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	before := make(map[string]map[string]any)
	for _, id := range ids {
		before[id] = getSessionJSON(t, base, id, 3)
	}
	sigterm(t, done)
	sharded, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sharded-p3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-9.snap"), sharded, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reboot from the same state directory.
	svc2 := service.New(service.Config{StateDir: dir})
	var boot bytes.Buffer
	base2, done2 := bootDaemon(t, svc2, cfg, &boot)
	// run logs the restore before it signals ready, and logs nothing else
	// until shutdown, so the buffer is quiescent here.
	if got := boot.String(); !strings.Contains(got, "s-9.snap: persist: corrupt artifact: rls: sessions support neither the sharded engine") ||
		!strings.Contains(got, fmt.Sprintf("restored %d sessions", len(ids))) {
		t.Errorf("boot log %q, want the sharded tenant skipped with its typed error and %d sessions restored", got, len(ids))
	}

	if n := svc2.Metrics().SessionsRestored.Load(); n != int64(len(ids)) {
		t.Fatalf("second boot restored %d sessions, want %d", n, len(ids))
	}
	for _, id := range ids {
		after := getSessionJSON(t, base2, id, 0)
		for _, k := range []string{"time", "balls", "disc", "moves", "activations", "config"} {
			if fmt.Sprint(before[id][k]) != fmt.Sprint(after[k]) {
				t.Errorf("tenant %s %s changed across restart: %v -> %v", id, k, before[id][k], after[k])
			}
		}
	}

	// SSE on a restored tenant: the first event is a consistent snapshot
	// frame matching the restored state, then frames follow applied
	// batches.
	stream, err := http.Get(base2 + "/v1/sessions/" + ids[0] + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	frames := make(chan map[string]any, 8)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var frame map[string]any
				if json.Unmarshal([]byte(data), &frame) == nil {
					frames <- frame
				}
			}
		}
		close(frames)
	}()
	snap := nextFrame(t, frames)
	for _, k := range []string{"time", "balls", "moves", "activations"} {
		if fmt.Sprint(snap[k]) != fmt.Sprint(before[ids[0]][k]) {
			t.Errorf("SSE snapshot %s = %v, want restored %v", k, snap[k], before[ids[0]][k])
		}
	}
	resp, err := http.Post(base2+"/v1/sessions/"+ids[0]+"/events", "application/json",
		strings.NewReader(`{"events": [{"op": "add"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	frame := nextFrame(t, frames)
	if got, want := fmt.Sprint(frame["balls"]), fmt.Sprint(int(snap["balls"].(float64))+1); got != want {
		t.Errorf("post-restore SSE frame balls = %v, want %v", got, want)
	}

	sigterm(t, done2)
}

func nextFrame(t *testing.T, frames chan map[string]any) map[string]any {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("SSE stream closed early")
		}
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("no SSE frame within 10s")
		return nil
	}
}

// getSessionJSON fetches a session info body, first waiting for its
// applied counter to reach minApplied.
func getSessionJSON(t *testing.T, base, id string, minApplied float64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			resp.Body.Close()
			t.Fatalf("GET %s: status %d", id, resp.StatusCode)
		}
		var info map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		applied, _ := info["applied"].(float64)
		if applied >= minApplied {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s applied %v, want %v", id, applied, minApplied)
		}
		time.Sleep(time.Millisecond)
	}
}
