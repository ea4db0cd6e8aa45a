package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	rls "repro"
)

// Tenant durability: each tenant serializes to one snapshot artifact
// (rls.SnapshotWithNote) in the state directory, named <id>.snap, with
// the tenant's identity and normalized creation config carried in the
// artifact note — the file is self-describing, no side-car index. Files
// are written to a temp name and renamed into place, so a crash during
// a save leaves the previous snapshot intact. On boot, RestoreSnapshots
// resurrects every tenant with its id, config, and byte-exact engine
// state; a restored session continues exactly where the saved one
// stopped (the snapshot layer's resume contract).

// tenantNote is the JSON payload stored in each snapshot's note field.
type tenantNote struct {
	ID     string        `json:"id"`
	Config sessionConfig `json:"config"`
}

// snapshotPath names a tenant's snapshot file inside dir.
func snapshotPath(dir, id string) string {
	return filepath.Join(dir, id+".snap")
}

// SaveSnapshots writes one snapshot file per live tenant into dir
// (created if absent), returning how many were saved. Individual
// failures don't abort the sweep; they come back joined. Safe to call
// while tenants are serving — each snapshot is taken under the
// session's lock, between events — though the drain path calls it after
// the appliers have finished, so shutdown snapshots capture the full
// accepted backlog.
func (s *Service) SaveSnapshots(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tenants := s.snapshotTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].id < tenants[j].id })
	saved := 0
	var errs []error
	for _, t := range tenants {
		if err := t.saveSnapshot(dir); err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", t.id, err))
			continue
		}
		saved++
	}
	return saved, errors.Join(errs...)
}

func (t *tenant) saveSnapshot(dir string) error {
	note, err := json.Marshal(tenantNote{ID: t.id, Config: t.cfg})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := t.sess.SnapshotWithNote(f, note); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, snapshotPath(dir, t.id))
}

// RestoreSnapshots loads every *.snap file in dir and resurrects its
// tenant — same id, same config, byte-exact engine state — returning
// how many came back. A missing directory restores nothing. Corrupt or
// unreadable files are skipped (their tenants are lost, the rest still
// boot) and reported joined.
func (s *Service) RestoreSnapshots(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	restored := 0
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".snap") || strings.HasPrefix(name, ".") {
			continue
		}
		if err := s.restoreSnapshot(filepath.Join(dir, name)); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}

func (s *Service) restoreSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sess, noteRaw, err := rls.ResumeSessionWithNote(f)
	if err != nil {
		return err
	}
	var note tenantNote
	if err := json.Unmarshal(noteRaw, &note); err != nil {
		return fmt.Errorf("tenant note: %w", err)
	}
	if note.ID == "" {
		return fmt.Errorf("tenant note has no id")
	}

	t := &tenant{
		id:     note.ID,
		cfg:    note.Config,
		sess:   sess,
		bucket: newBucketAt(s.cfg.EventRate, s.cfg.EventBurst, s.cfg.now),
		broker: newBroker(&s.metrics.StreamDropped),
		queue:  make(chan batch, s.cfg.QueueDepth),
		done:   make(chan struct{}),
	}
	// A restored session has already moved; seed the worker's
	// move-throughput delta base so restored history isn't recounted.
	t.lastMoves = sess.Moves()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service is draining")
	}
	if len(s.tenants) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return fmt.Errorf("session limit %d reached", s.cfg.MaxSessions)
	}
	if _, exists := s.tenants[note.ID]; exists {
		s.mu.Unlock()
		return fmt.Errorf("tenant %s already live", note.ID)
	}
	s.tenants[note.ID] = t
	// Keep fresh ids ahead of every restored "s-<n>" so a restart never
	// reissues a restored tenant's id to a new session.
	if n, ok := numericSuffix(note.ID); ok && n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()

	s.metrics.SessionsRestored.Add(1)
	s.metrics.SessionsLive.Add(1)
	s.workers.Add(1)
	go t.worker(&s.metrics, &s.workers)
	return nil
}

// numericSuffix extracts n from the service's "s-<n>" id scheme;
// operator-renamed snapshot files with other id shapes restore fine but
// don't advance the counter.
func numericSuffix(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// removeSnapshot deletes a departed tenant's snapshot file so DELETE
// leaves no orphan to resurrect on the next boot.
func removeSnapshot(dir, id string) {
	if dir == "" {
		return
	}
	_ = os.Remove(snapshotPath(dir, id))
}
