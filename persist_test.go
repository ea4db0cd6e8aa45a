package rls

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/persist"
)

// snapshotCase is one cell of the resume property matrix: an engine mode
// with its rule/topology/shard configuration.
type snapshotCase struct {
	name string
	opts []SessionOption
}

func snapshotMatrix() []snapshotCase {
	return []snapshotCase{
		{"direct", nil},
		{"direct-strict", []SessionOption{WithSessionStrictTieRule()}},
		{"direct-ring", []SessionOption{WithSessionTopology(RingTopology())}},
		{"jump", []SessionOption{WithSessionEngineMode(JumpEngine)}},
		{"jump-strict", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionStrictTieRule()}},
		{"jump-ring", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(RingTopology())}},
		// Both graph-sampler paths (and both new topology codes): auto
		// resolves to exact at every degree, the forced rejection cells
		// serialize the hybrid's admissible bounds. Matrix
		// sizes (16 and 64 bins) are perfect squares by design.
		{"jump-expander", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology())}},
		{"jump-expander-hybrid", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology()), WithSessionGraphSampler(GraphSamplerRejection)}},
		{"jump-rr-hybrid", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(RandomRegularTopology(6, 99)), WithSessionGraphSampler(GraphSamplerRejection)}},
		{"sharded-p1", []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionShards(1)}},
		{"sharded-p3", []SessionOption{WithSessionEngineMode(ShardedEngine), WithSessionShards(3)}},
	}
}

// churnPhase drives a session through a deterministic mix of runs and
// churn — the same script the resume test replays on both arms. Every
// Run boundary is an epoch barrier for the sharded engines, so the
// mid-script snapshot in the property test lands exactly where the
// contract requires.
func churnPhase(t *testing.T, s *Session, rounds int) []int {
	t.Helper()
	var picks []int
	for i := 0; i < rounds; i++ {
		picks = append(picks, s.AddBallRandom())
		if i%3 == 2 {
			bin, err := s.RemoveRandomBall()
			if err != nil {
				t.Fatalf("remove: %v", err)
			}
			picks = append(picks, bin)
		}
		if err := s.RunFor(0.5); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	return picks
}

func sessionSnapshotBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestResumeByteIdentical is the keystone gate of the persistence layer:
// for every engine mode × rule × topology cell, a session snapshotted
// mid-run, restored, and continued must be indistinguishable — same
// churn placements, same stats, and byte-identical final snapshot
// (which covers loads, index internals, clocks, and RNG streams) — from
// a session that was never interrupted.
func TestResumeByteIdentical(t *testing.T) {
	const n, seed = 64, 0xA11CE
	for _, tc := range snapshotMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			a := NewSession(n, seed, tc.opts...)
			b := NewSession(n, seed, tc.opts...)

			// Phase 1: identical prefix on both arms, with churn.
			for i := 0; i < 3*n; i++ {
				a.AddBallRandom()
				b.AddBallRandom()
			}
			pa := churnPhase(t, a, 12)
			pb := churnPhase(t, b, 12)
			if fmt.Sprint(pa) != fmt.Sprint(pb) {
				t.Fatalf("same-seed sessions diverged before any snapshot:\n%v\n%v", pa, pb)
			}

			// Interrupt arm B: snapshot at the run barrier, restore, and
			// throw the original away.
			raw := sessionSnapshotBytes(t, b)
			b2, err := ResumeSession(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := sessionSnapshotBytes(t, b2); !bytes.Equal(raw, got) {
				t.Fatalf("re-snapshotting a freshly resumed session changed the artifact (%d vs %d bytes)", len(raw), len(got))
			}

			// Phase 2: identical continuation on A (uninterrupted) and the
			// resumed B2, compared draw by draw.
			pa = churnPhase(t, a, 10)
			pb = churnPhase(t, b2, 10)
			if fmt.Sprint(pa) != fmt.Sprint(pb) {
				t.Fatalf("resumed session diverged from uninterrupted run:\n%v\n%v", pa, pb)
			}
			sa, sb := a.Stats(), b2.Stats()
			if sa != sb {
				t.Fatalf("stats diverged after resume:\n%+v\n%+v", sa, sb)
			}
			if fmt.Sprint(a.Loads()) != fmt.Sprint(b2.Loads()) {
				t.Fatalf("loads diverged after resume")
			}
			if fa, fb := sessionSnapshotBytes(t, a), sessionSnapshotBytes(t, b2); !bytes.Equal(fa, fb) {
				t.Fatalf("final snapshots differ (%d vs %d bytes): resume is not byte-identical", len(fa), len(fb))
			}
		})
	}
}

// TestResumeAcrossLevelIndexShrink snapshots jump-family sessions from an
// all-in-one start, while the level index still spans ~2m levels, and
// checks the resumed run continues through the index's shrink byte for
// byte with the uninterrupted one.
func TestResumeAcrossLevelIndexShrink(t *testing.T) {
	const n, m, seed = 64, 512, 0x5A1
	for _, tc := range []snapshotCase{
		{"jump", []SessionOption{WithSessionEngineMode(JumpEngine)}},
		{"jump-strict", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionStrictTieRule()}},
		{"jump-expander", []SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewSession(n, seed, tc.opts...)
			for i := 0; i < m; i++ {
				if err := a.AddBall(0); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.RunFor(0.01); err != nil {
				t.Fatal(err)
			}
			maxAt := func(s *Session) int {
				mx := 0
				for _, l := range s.Loads() {
					mx = max(mx, l)
				}
				return mx
			}
			mid := maxAt(a)
			raw := sessionSnapshotBytes(t, a)
			b, err := ResumeSession(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			for _, s := range []*Session{a, b} {
				if ok, err := s.RunUntilPerfect(1 << 40); err != nil || !ok {
					t.Fatalf("run to perfect: ok=%v err=%v", ok, err)
				}
			}
			// The index covered more than mid+1 levels at the snapshot and
			// shrinks once (max+1)·4 fits in it, so this run crossed a shrink.
			if end := maxAt(a); (end+1)*4 > mid {
				t.Fatalf("max load %d → %d does not force a shrink", mid, end)
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("stats diverged after resume:\n%+v\n%+v", sa, sb)
			}
			if fa, fb := sessionSnapshotBytes(t, a), sessionSnapshotBytes(t, b); !bytes.Equal(fa, fb) {
				t.Fatalf("final snapshots differ (%d vs %d bytes)", len(fa), len(fb))
			}
		})
	}
}

// TestResumeAutoSamplerFollowsPayload covers artifacts written when auto
// picked the rejection hybrid on dense graphs: meta says auto, the engine
// payload carries the hybrid's tag and bounds. Such snapshots and trace
// seek points must resume onto the hybrid and continue byte-identically,
// while a payload that contradicts an explicit exact or rejection choice
// stays a typed corruption error.
func TestResumeAutoSamplerFollowsPayload(t *testing.T) {
	const n = 64
	dense := WithSessionTopology(RandomRegularTopology(16, 13))
	build := func(gs GraphSampler) *Session {
		s := NewSession(n, 77, WithSessionEngineMode(JumpEngine), dense, WithSessionGraphSampler(gs))
		for i := 0; i < 4*n; i++ {
			s.AddBallRandom()
		}
		churnPhase(t, s, 6)
		return s
	}
	// forge writes s's artifact as if it had been built with meta choice gs.
	forge := func(s *Session, gs GraphSampler) []byte {
		orig := s.graphSampler
		s.graphSampler = gs
		defer func() { s.graphSampler = orig }()
		return sessionSnapshotBytes(t, s)
	}

	a := build(GraphSamplerRejection)
	a.graphSampler = GraphSamplerAuto // from here on a is the legacy auto session
	legacy := sessionSnapshotBytes(t, a)
	b, err := ResumeSession(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy auto/hybrid snapshot does not resume: %v", err)
	}
	if b.GraphSamplerChoice() != GraphSamplerAuto {
		t.Fatalf("resumed choice %v, want auto", b.GraphSamplerChoice())
	}
	if got := sessionSnapshotBytes(t, b); !bytes.Equal(got, legacy) {
		t.Fatal("re-snapshotting the resumed legacy session changed the artifact")
	}
	pa, pb := churnPhase(t, a, 8), churnPhase(t, b, 8)
	if fmt.Sprint(pa) != fmt.Sprint(pb) || a.Stats() != b.Stats() {
		t.Fatalf("resumed legacy session diverged:\n%v %+v\n%v %+v", pa, a.Stats(), pb, b.Stats())
	}
	if fa, fb := sessionSnapshotBytes(t, a), sessionSnapshotBytes(t, b); !bytes.Equal(fa, fb) {
		t.Fatal("final snapshots differ after resuming a legacy auto/hybrid artifact")
	}

	// The same artifact as a trace archive's seek point.
	var buf bytes.Buffer
	tw, err := a.NewTraceWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	item, err := tr.Next()
	if err != nil || item.Snapshot == nil {
		t.Fatalf("trace seek point: %+v, %v", item, err)
	}
	if _, err := ResumeSession(bytes.NewReader(item.Snapshot)); err != nil {
		t.Fatalf("legacy auto/hybrid trace seek point does not resume: %v", err)
	}

	// Explicit choices are never overridden by the payload.
	for _, c := range []struct {
		name string
		art  []byte
	}{
		{"exact-meta-hybrid-payload", forge(build(GraphSamplerRejection), GraphSamplerExact)},
		{"rejection-meta-exact-payload", forge(build(GraphSamplerExact), GraphSamplerRejection)},
	} {
		if _, err := ResumeSession(bytes.NewReader(c.art)); !errors.Is(err, persist.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestResumePreservesShape checks the restored session reports the same
// shape the original was built with.
func TestResumePreservesShape(t *testing.T) {
	s := NewSession(16, 7, WithSessionEngineMode(ShardedEngine), WithSessionShards(3))
	for i := 0; i < 64; i++ {
		s.AddBallRandom()
	}
	if err := s.RunFor(1); err != nil {
		t.Fatal(err)
	}
	raw := sessionSnapshotBytes(t, s)
	s2, err := ResumeSession(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Mode() != ShardedEngine || s2.Shards() != 3 || s2.N() != 16 || s2.M() != 64 {
		t.Fatalf("restored shape mode=%v n=%d m=%d", s2.Mode(), s2.N(), s2.M())
	}
}

func TestSnapshotNoteRoundTrip(t *testing.T) {
	s := NewSession(8, 1)
	s.AddBallRandom()
	var buf bytes.Buffer
	note := []byte(`{"id":"s-7"}`)
	if err := s.SnapshotWithNote(&buf, note); err != nil {
		t.Fatal(err)
	}
	_, got, err := ResumeSessionWithNote(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, note) {
		t.Fatalf("note round-trip: got %q want %q", got, note)
	}
}

// TestDecodeSnapshotMalformed table-tests the typed-error contract:
// truncation, bit flips, version skew, and wrong magic must all surface
// as persist's errors — never as a panic or a silently wrong session.
func TestDecodeSnapshotMalformed(t *testing.T) {
	s := NewSession(16, 3, WithSessionEngineMode(JumpEngine))
	for i := 0; i < 48; i++ {
		s.AddBallRandom()
	}
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	good := sessionSnapshotBytes(t, s)
	if _, err := ResumeSession(bytes.NewReader(good)); err != nil {
		t.Fatalf("control artifact does not decode: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, 3, 4, 5, len(good) / 3, len(good) - 1} {
			_, err := ResumeSession(bytes.NewReader(good[:cut]))
			if err == nil {
				t.Fatalf("cut at %d decoded", cut)
			}
			if !errors.Is(err, persist.ErrTruncated) && !errors.Is(err, persist.ErrBadMagic) {
				t.Fatalf("cut at %d: %v (want ErrTruncated or ErrBadMagic)", cut, err)
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		// Flip one byte at a spread of offsets past the header. Every
		// flip must be caught — by the section CRC, or (if it lands in a
		// length prefix) by the bounds validation behind it.
		for off := 5; off < len(good); off += 7 {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x41
			s2, err := ResumeSession(bytes.NewReader(mut))
			if err == nil {
				// A flip in a section length can reframe the stream so a
				// stale CRC happens to match only if the artifact still
				// parses identically; reject any silent acceptance that
				// changed state.
				if !bytes.Equal(sessionSnapshotBytes(t, s2), good) {
					t.Fatalf("flip at %d silently decoded to different state", off)
				}
				continue
			}
			var verr *persist.VersionError
			switch {
			case errors.Is(err, persist.ErrChecksum),
				errors.Is(err, persist.ErrCorrupt),
				errors.Is(err, persist.ErrTruncated),
				errors.Is(err, persist.ErrBadMagic),
				errors.As(err, &verr):
			default:
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		mut[4] = byte(persist.Version + 9) // version uvarint follows the 4-byte magic
		_, err := ResumeSession(bytes.NewReader(mut))
		var verr *persist.VersionError
		if !errors.As(err, &verr) {
			t.Fatalf("got %v, want VersionError", err)
		}
		if verr.Got != persist.Version+9 || verr.Want != persist.Version {
			t.Fatalf("VersionError %+v", verr)
		}
	})

	t.Run("hybrid-section", func(t *testing.T) {
		// The rejection sampler's persisted bounds get their own artifact:
		// every flip and cut over it must still surface typed errors (the
		// bounds validation behind the CRC rejects out-of-range admUB).
		h := NewSession(16, 3, WithSessionEngineMode(JumpEngine),
			WithSessionTopology(RandomRegularTopology(6, 21)),
			WithSessionGraphSampler(GraphSamplerRejection))
		for i := 0; i < 48; i++ {
			h.AddBallRandom()
		}
		if err := h.RunFor(2); err != nil {
			t.Fatal(err)
		}
		art := sessionSnapshotBytes(t, h)
		if _, err := ResumeSession(bytes.NewReader(art)); err != nil {
			t.Fatalf("hybrid control artifact does not decode: %v", err)
		}
		for _, cut := range []int{len(art) / 3, len(art) - 1} {
			if _, err := ResumeSession(bytes.NewReader(art[:cut])); !errors.Is(err, persist.ErrTruncated) {
				t.Fatalf("hybrid cut at %d: %v (want ErrTruncated)", cut, err)
			}
		}
		for off := 5; off < len(art); off += 7 {
			mut := append([]byte(nil), art...)
			mut[off] ^= 0x41
			s2, err := ResumeSession(bytes.NewReader(mut))
			if err == nil {
				if !bytes.Equal(sessionSnapshotBytes(t, s2), art) {
					t.Fatalf("hybrid flip at %d silently decoded to different state", off)
				}
				continue
			}
			var verr *persist.VersionError
			switch {
			case errors.Is(err, persist.ErrChecksum),
				errors.Is(err, persist.ErrCorrupt),
				errors.Is(err, persist.ErrTruncated),
				errors.Is(err, persist.ErrBadMagic),
				errors.As(err, &verr):
			default:
				t.Fatalf("hybrid flip at %d: untyped error %v", off, err)
			}
		}
	})

	// The removed sharded jump mode: the artifact written by the last
	// version that had it, and two hand-made variants that reach the
	// sharded payload decoder with its mode flag or its census set.
	legacy := readTestdata(t, "shardedjump-p3.snap")
	var shape persist.Enc
	shape.Int(16)
	shape.Int(3)
	jumpOff := len(shape.Bytes()) // the jump flag follows n and P
	for _, c := range []struct {
		name string
		art  []byte
	}{
		{"shardedjump-meta", legacy},
		{"shardedjump-payload", rewriteSnapshot(t, legacy, int(ShardedEngine), nil)},
		{"shardedjump-census", rewriteSnapshot(t, legacy, int(ShardedEngine), func(p []byte) {
			p[jumpOff] = 0 // clear the mode flag: the census flag trips next
		})},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ResumeSession(bytes.NewReader(c.art))
			if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "shardedjump") {
				t.Fatalf("got %v, want ErrCorrupt naming shardedjump", err)
			}
		})
	}

	t.Run("wrong-magic", func(t *testing.T) {
		mut := append([]byte(nil), good...)
		copy(mut, persist.MagicTrace)
		if _, err := ResumeSession(bytes.NewReader(mut)); !errors.Is(err, persist.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
		if _, err := OpenTrace(bytes.NewReader(good)); !errors.Is(err, persist.ErrBadMagic) {
			t.Fatalf("trace reader accepted a snapshot: %v", err)
		}
	})
}

// TestTraceArchiveRoundTrip writes an archive with embedded snapshots
// and reads it back: meta, record sequence, and the resumability of
// every embedded seek point.
func TestTraceArchiveRoundTrip(t *testing.T) {
	s := NewSession(32, 11, WithSessionEngineMode(JumpEngine))
	for i := 0; i < 96; i++ {
		s.AddBallRandom()
	}
	var buf bytes.Buffer
	tw, err := s.NewTraceWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want []TraceRecord
	snapAt := []int{0} // initial snapshot precedes all records
	recs := 0
	for i := 0; i < 10; i++ {
		if err := s.RunFor(0.25); err != nil {
			t.Fatal(err)
		}
		if err := tw.Point(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		want = append(want, TraceRecord{Kind: "point", Bin: -1, Time: st.Time, Activations: st.Activations, Moves: st.Moves, Balls: st.Balls, Disc: st.Disc})
		recs++
		if recs%4 == 0 {
			snapAt = append(snapAt, recs)
		}
		if i == 5 {
			bin := s.AddBallRandom()
			if err := tw.Churn("add", bin); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			want = append(want, TraceRecord{Kind: "add", Bin: bin, Time: st.Time, Activations: st.Activations, Moves: st.Moves, Balls: st.Balls, Disc: st.Disc})
			recs++
			if recs%4 == 0 {
				snapAt = append(snapAt, recs)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	meta := tr.Meta()
	if meta.Bins != 32 || meta.Mode != JumpEngine || meta.Topology != "complete" {
		t.Fatalf("meta %+v", meta)
	}
	var got []TraceRecord
	snaps := 0
	for {
		item, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if item.Snapshot != nil {
			snaps++
			if _, err := ResumeSession(bytes.NewReader(item.Snapshot)); err != nil {
				t.Fatalf("embedded snapshot %d does not resume: %v", snaps, err)
			}
			continue
		}
		got = append(got, *item.Record)
	}
	if snaps != len(snapAt) {
		t.Fatalf("%d embedded snapshots, want %d", snaps, len(snapAt))
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestTraceArchiveCrashTail: an archive cut off mid-stream (no end
// section) reads cleanly to its last complete section.
func TestTraceArchiveCrashTail(t *testing.T) {
	s := NewSession(8, 2)
	for i := 0; i < 16; i++ {
		s.AddBallRandom()
	}
	var buf bytes.Buffer
	tw, err := s.NewTraceWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.RunFor(0.5); err != nil {
			t.Fatal(err)
		}
		if err := tw.Point(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Drop the end section entirely: still a clean EOF after 5 records.
	cut := full[:len(full)-6] // end section = kind uvarint + len uvarint + 4 CRC bytes
	tr, err := OpenTrace(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		item, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("crash tail after %d items: %v", n, err)
		}
		if item.Record != nil {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("read %d records from crash-cut archive, want 5", n)
	}

	// Cut mid-record: the partial section is a typed truncation error.
	tr, err = OpenTrace(bytes.NewReader(full[:len(full)-9]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := tr.Next()
		if err == nil {
			continue
		}
		if !errors.Is(err, persist.ErrTruncated) {
			t.Fatalf("mid-section cut: %v, want ErrTruncated", err)
		}
		break
	}
}

// TestRemovedModeTrace: a trace archive recorded in the removed
// sharded jump mode neither opens nor resumes from its embedded seek
// points; each path fails with ErrCorrupt naming the mode.
func TestRemovedModeTrace(t *testing.T) {
	raw := readTestdata(t, "shardedjump-p3.trace")
	wantCorrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "shardedjump") {
			t.Fatalf("%s: got %v, want ErrCorrupt naming shardedjump", what, err)
		}
	}
	_, err := OpenTrace(bytes.NewReader(raw))
	wantCorrupt("open", err)

	br := bufio.NewReader(bytes.NewReader(raw))
	if err := persist.ReadHeader(br, persist.MagicTrace); err != nil {
		t.Fatal(err)
	}
	sr := persist.NewSectionReader(br)
	seeks := 0
	for {
		kind, payload, err := sr.Next()
		if err == io.EOF || kind == persist.KindEnd {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if kind == sectTraceSnapshot {
			seeks++
			_, err := ResumeSession(bytes.NewReader(payload))
			wantCorrupt(fmt.Sprintf("seek point %d", seeks), err)
		}
	}
	if seeks < 2 {
		t.Fatalf("archive holds %d seek points, want the initial one and more", seeks)
	}
}

// TestResumeLegacyArtifacts resumes direct, jump, and sharded snapshots
// written by the version that still had the sharded jump mode, replays
// the continuation script those sessions then ran, and requires the
// final snapshot they wrote byte for byte: the surviving modes kept
// their layout and their draws.
func TestResumeLegacyArtifacts(t *testing.T) {
	for _, name := range []string{"direct", "jump", "sharded-p3"} {
		t.Run(name, func(t *testing.T) {
			s, err := ResumeSession(bytes.NewReader(readTestdata(t, name+".snap")))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			for i := 0; i < 6; i++ {
				s.AddBallRandom()
				if i%3 == 2 {
					if _, err := s.RemoveRandomBall(); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.RunFor(0.5); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := sessionSnapshotBytes(t, s), readTestdata(t, name+".final.snap"); !bytes.Equal(got, want) {
				t.Fatalf("continuation diverged from the recorded run (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// rewriteSnapshot re-frames a snapshot artifact with the meta section's
// engine mode replaced and the engine payload passed through patch (nil
// leaves it as is), recomputing every section checksum.
func rewriteSnapshot(t testing.TB, art []byte, mode int, patch func([]byte)) []byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(art))
	if err := persist.ReadHeader(br, persist.MagicSnapshot); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := persist.WriteHeader(&out, persist.MagicSnapshot); err != nil {
		t.Fatal(err)
	}
	sr := persist.NewSectionReader(br)
	for {
		kind, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		payload = append([]byte(nil), payload...)
		switch kind {
		case sectMeta:
			n, _, shards, strict, topoKind, topoArg, topoSeed, gsampler, note, err := decodeMeta(payload)
			if err != nil {
				t.Fatal(err)
			}
			var e persist.Enc
			e.Int(n)
			e.Int(mode)
			e.Int(shards)
			e.Bool(strict)
			e.Int(topoKind)
			e.Int(topoArg)
			e.U64(topoSeed)
			e.Int(gsampler)
			e.Bytes8(note)
			payload = e.Bytes()
		case sectEngine, sectSharded:
			if patch != nil {
				patch(payload)
			}
		}
		if err := persist.WriteSection(&out, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestTraceMetaGraphFamilies pins the archive header strings for the
// PR 10 topology codes and the graph-sampler field.
func TestTraceMetaGraphFamilies(t *testing.T) {
	cases := []struct {
		opts     []SessionOption
		topology string
		sampler  string
	}{
		{[]SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(ExpanderTopology())},
			"expander", "auto"},
		{[]SessionOption{WithSessionEngineMode(JumpEngine), WithSessionTopology(RandomRegularTopology(6, 5)),
			WithSessionGraphSampler(GraphSamplerRejection)},
			"random-6-regular", "rejection"},
	}
	for _, c := range cases {
		s := NewSession(16, 9, c.opts...)
		for i := 0; i < 32; i++ {
			s.AddBallRandom()
		}
		var buf bytes.Buffer
		tw, err := s.NewTraceWriter(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Point(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := OpenTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		meta := tr.Meta()
		if meta.Topology != c.topology || meta.Sampler != c.sampler {
			t.Fatalf("trace meta %+v, want topology %q sampler %q", meta, c.topology, c.sampler)
		}
	}
}

// FuzzDecodeSnapshot: no input, however mangled, may panic the decoder.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, tc := range snapshotMatrix() {
		s := NewSession(16, 5, tc.opts...)
		for i := 0; i < 32; i++ {
			s.AddBallRandom()
		}
		if err := s.RunFor(1); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The removed sharded jump mode's artifact, and its payload behind a
	// sharded header, seed the error paths.
	legacy := readTestdata(f, "shardedjump-p3.snap")
	f.Add(legacy)
	f.Add(rewriteSnapshot(f, legacy, int(ShardedEngine), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ResumeSession(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be a live, runnable session.
		s.AddBallRandom()
		if err := s.RunFor(0.1); err != nil {
			t.Fatalf("resumed session cannot run: %v", err)
		}
	})
}
