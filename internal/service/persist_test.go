package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/persist"
)

// TestSaveRestoreSnapshots: a second service booted from the first one's
// state directory hosts the same tenants with the same ids, configs, and
// engine state, and keeps issuing fresh ids past the restored ones.
func TestSaveRestoreSnapshots(t *testing.T) {
	dir := t.TempDir()
	srv, svc := newTestServer(t, Config{StateDir: dir})

	id1 := createSession(t, srv, `{"bins": 16, "balls": 64, "seed": 7}`)
	id2 := createSession(t, srv, `{"bins": 32, "balls": 32, "seed": 9, "engine": "sharded", "shards": 3}`)
	post(t, srv.URL+"/v1/sessions/"+id1+"/events", `{"events":[{"op":"run","for":2.5},{"op":"add"}]}`).Body.Close()
	post(t, srv.URL+"/v1/sessions/"+id2+"/events", `{"events":[{"op":"run","for":1.0},{"op":"remove"}]}`).Body.Close()
	before1 := waitApplied(t, srv, id1, 2)
	before2 := waitApplied(t, srv, id2, 2)

	n, err := svc.SaveSnapshots(dir)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if n != 2 {
		t.Fatalf("saved %d tenants, want 2", n)
	}

	srv2, svc2 := newTestServer(t, Config{StateDir: dir})
	m, err := svc2.RestoreSnapshots(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if m != 2 {
		t.Fatalf("restored %d tenants, want 2", m)
	}
	if got := svc2.Metrics().SessionsRestored.Load(); got != 2 {
		t.Fatalf("restored metric %d, want 2", got)
	}

	for id, before := range map[string]sessionInfo{id1: before1, id2: before2} {
		resp, err := http.Get(srv2.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var after sessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("restored tenant %s: status %d", id, resp.StatusCode)
		}
		if ca, cb := fmt.Sprintf("%+v", after.Config), fmt.Sprintf("%+v", before.Config); ca != cb {
			t.Fatalf("tenant %s config changed across restart:\n%s\n%s", id, ca, cb)
		}
		if after.Time != before.Time || after.Balls != before.Balls ||
			after.Moves != before.Moves || after.Activations != before.Activations ||
			after.Disc != before.Disc {
			t.Fatalf("tenant %s state changed across restart:\nbefore %+v\nafter  %+v", id, before.telemetry, after.telemetry)
		}
	}

	// A restored tenant keeps serving events.
	post(t, srv2.URL+"/v1/sessions/"+id1+"/events", `{"events":[{"op":"add"},{"op":"run","for":0.5}]}`).Body.Close()
	waitApplied(t, srv2, id1, 2)

	// Fresh ids start past the restored ones.
	id3 := createSession(t, srv2, `{"bins": 8}`)
	if id3 == id1 || id3 == id2 {
		t.Fatalf("fresh id %q collides with a restored tenant", id3)
	}
}

// TestDeleteRemovesSnapshot: DELETE on a durable service leaves no
// snapshot file behind to resurrect on the next boot.
func TestDeleteRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, svc := newTestServer(t, Config{StateDir: dir})
	id := createSession(t, srv, `{"bins": 8, "balls": 8}`)
	if _, err := svc.SaveSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshotPath(dir, id)); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(snapshotPath(dir, id)); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survived the DELETE: %v", err)
	}
	if n, err := svc.RestoreSnapshots(dir); n != 0 || err != nil {
		t.Fatalf("orphan restore: %d tenants, err %v", n, err)
	}
}

// TestRestoreSkipsCorrupt: one mangled file loses only its own tenant.
func TestRestoreSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	srv, svc := newTestServer(t, Config{StateDir: dir})
	createSession(t, srv, `{"bins": 8, "balls": 8}`)
	createSession(t, srv, `{"bins": 8, "balls": 8, "engine": "jump"}`)
	if _, err := svc.SaveSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-1.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, svc2 := newTestServer(t, Config{StateDir: dir})
	n, err := svc2.RestoreSnapshots(dir)
	if n != 1 {
		t.Fatalf("restored %d tenants, want 1", n)
	}
	if err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
}

// TestRestoreSkipsRemovedEngineMode: a tenant saved in the removed
// shardedjump mode fails to restore with a typed error naming the mode,
// while the valid tenants beside it come back.
func TestRestoreSkipsRemovedEngineMode(t *testing.T) {
	dir := t.TempDir()
	srv, svc := newTestServer(t, Config{StateDir: dir})
	direct := createSession(t, srv, `{"bins": 8, "balls": 16}`)
	sharded := createSession(t, srv, `{"bins": 16, "balls": 48, "engine": "sharded", "shards": 3}`)
	if n, err := svc.SaveSnapshots(dir); n != 2 || err != nil {
		t.Fatalf("save: %d tenants, err %v", n, err)
	}
	legacy, err := os.ReadFile(filepath.Join("..", "..", "testdata", "shardedjump-p3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-7.snap"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, svc2 := newTestServer(t, Config{StateDir: dir})
	n, err := svc2.RestoreSnapshots(dir)
	if n != 2 {
		t.Fatalf("restored %d tenants, want 2", n)
	}
	if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "s-7.snap") || !strings.Contains(err.Error(), "shardedjump") {
		t.Fatalf("restore error %v, want ErrCorrupt for s-7.snap naming shardedjump", err)
	}
	for id, want := range map[string]int{direct: 200, sharded: 200, "s-7": 404} {
		resp, err := http.Get(srv2.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
}

// TestRestoreMissingDirIsEmptyBoot: first boot with a fresh state dir.
func TestRestoreMissingDirIsEmptyBoot(t *testing.T) {
	svc := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	n, err := svc.RestoreSnapshots(filepath.Join(t.TempDir(), "absent"))
	if n != 0 || err != nil {
		t.Fatalf("missing dir: %d tenants, err %v", n, err)
	}
}
