package rls

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/persist"
)

// snapshotCase is one cell of the resume property matrix: an engine mode
// with its rule/topology configuration.
type snapshotCase struct {
	name string
	spec Spec
}

func snapshotMatrix() []snapshotCase {
	return []snapshotCase{
		{"direct", Spec{}},
		{"direct-strict", Spec{Strict: true}},
		{"direct-ring", Spec{Topology: RingTopology()}},
		{"jump", Spec{Mode: JumpEngine}},
		{"jump-strict", Spec{Mode: JumpEngine, Strict: true}},
		{"jump-ring", Spec{Mode: JumpEngine, Topology: RingTopology()}},
		// Both graph topology codes added with the dense families. Matrix
		// sizes (16 and 64 bins) are perfect squares by design.
		{"jump-expander", Spec{Mode: JumpEngine, Topology: ExpanderTopology()}},
		{"jump-rr", Spec{Mode: JumpEngine, Topology: RandomRegularTopology(6, 99)}},
	}
}

// churnPhase drives a session through a deterministic mix of runs and
// churn — the same script the resume test replays on both arms.
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
			a := newSession(t, tc.spec, n, seed)
			b := newSession(t, tc.spec, n, seed)

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
		{"jump", Spec{Mode: JumpEngine}},
		{"jump-strict", Spec{Mode: JumpEngine, Strict: true}},
		{"jump-expander", Spec{Mode: JumpEngine, Topology: ExpanderTopology()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newSession(t, tc.spec, n, seed)
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
// payload carries the hybrid's tag and bounds. Auto used to let the
// payload pick the sampler; with the hybrid removed, such an artifact —
// and the same payload behind an explicit exact choice — fails with
// ErrCorrupt naming the removed sampler.
func TestResumeAutoSamplerFollowsPayload(t *testing.T) {
	legacy := readTestdata(t, "jump-rr16-auto-hybrid.snap")
	for name, art := range map[string][]byte{
		"auto-meta":  legacy,
		"exact-meta": rewriteSnapshot(t, legacy, func(_, gs *int) { *gs = 1 }, nil),
	} {
		t.Run(name, func(t *testing.T) {
			_, err := ResumeSession(bytes.NewReader(art))
			wantRemoved(t, err, "rejection sampler")
		})
	}
}

// wantRemoved requires err to be ErrCorrupt naming a removed engine mode
// or sampler.
func wantRemoved(t *testing.T, err error, name string) {
	t.Helper()
	if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("got %v, want ErrCorrupt naming the %s", err, name)
	}
}

// TestResumePreservesShape checks the restored session reports the same
// shape the original was built with.
func TestResumePreservesShape(t *testing.T) {
	s := newSession(t, Spec{Mode: JumpEngine, Strict: true}, 16, 7)
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
	if s2.Mode() != JumpEngine || !s2.Strict() || s2.N() != 16 || s2.M() != 64 {
		t.Fatalf("restored shape mode=%v strict=%t n=%d m=%d", s2.Mode(), s2.Strict(), s2.N(), s2.M())
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

	// The removed sharded jump mode: the artifact written by the last
	// version that had it, and its payload behind a sharded header. The
	// sharded engine, which sessions no longer run: the artifact written
	// by the last version whose sessions did, and its payload behind a
	// direct header. The removed rejection graph sampler: a
	// forced-rejection artifact (meta code 2), and its payload (graph
	// tag 2) behind an auto meta.
	legacy := readTestdata(t, "shardedjump-p3.snap")
	sharded := readTestdata(t, "sharded-p3.snap")
	rejection := readTestdata(t, "jump-expander-rejection.snap")
	for _, c := range []struct {
		name, removed string
		art           []byte
	}{
		{"shardedjump-meta", "shardedjump", legacy},
		{"shardedjump-payload", "sharded engine", rewriteSnapshot(t, legacy, func(mode, _ *int) { *mode = int(ShardedEngine) }, nil)},
		{"sharded-p3", "sharded engine", sharded},
		{"sharded-payload", "sharded engine", rewriteSnapshot(t, sharded, func(mode, _ *int) { *mode = int(DirectEngine) }, nil)},
		{"rejection-meta", "rejection sampler", rejection},
		{"rejection-payload", "rejection sampler", rewriteSnapshot(t, rejection, func(_, gs *int) { *gs = 0 }, nil)},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := ResumeSession(bytes.NewReader(c.art))
			wantRemoved(t, err, c.removed)
		})
	}

	// The removed Fenwick and event-heap samplers' tags (2 and 3) stay
	// reserved: a direct snapshot whose sampler tag is rewritten to either
	// fails as corrupt, naming the sampler.
	direct := directSnapshot(t)
	for _, c := range []struct {
		tag     int
		sampler string
	}{{2, "fenwick sampler"}, {3, "event-heap sampler"}} {
		t.Run(fmt.Sprintf("sampler-tag-%d", c.tag), func(t *testing.T) {
			_, err := ResumeSession(bytes.NewReader(withSamplerTag(t, direct, c.tag)))
			wantRemoved(t, err, c.sampler)
		})
	}

	// Every CRC of huge-bins.snap holds, but its header claims 2^31 bins
	// over a one-byte engine section: it must fail as corrupt before
	// anything is sized by the bin count (it used to allocate 16 GiB).
	t.Run("huge-bin-count", func(t *testing.T) {
		_, err := ResumeSession(bytes.NewReader(readTestdata(t, "huge-bins.snap")))
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "2147483648 bins") {
			t.Fatalf("got %v, want ErrCorrupt naming the claimed bin count", err)
		}
	})

	// Forged expander headers over bin counts near MaxInt, one square and
	// one not, with valid CRCs and a one-byte engine section: the √n the
	// expander check looks for must not overflow (it used to loop on a
	// wrapped square), and the bin count fails against the payload.
	for _, n := range hugeExpanderBins {
		t.Run(fmt.Sprintf("huge-expander-%d", n), func(t *testing.T) {
			art := forgeHeader(t, persist.MagicSnapshot, n, []byte{0})
			_, err := ResumeSession(bytes.NewReader(art))
			if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("%d bins", n)) {
				t.Fatalf("got %v, want ErrCorrupt naming the claimed bin count", err)
			}
		})
	}

	// Every CRC of this header holds and its engine section covers the
	// bin count, but it names a random-8190-regular graph over 8192 bins:
	// 6.7·10⁷ neighbor slots, over Validate's ceiling. It must fail as
	// corrupt before the graph is built; it used to build it, and a
	// 2¹⁶-bin header of the same shape asked for 2³² slots.
	t.Run("random-regular-over-slot-ceiling", func(t *testing.T) {
		art := overCeilingSnapshot()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ResumeSession(bytes.NewReader(art))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "neighbor slots") {
			t.Fatalf("got %v, want ErrCorrupt naming the neighbor-slot ceiling", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("rejecting the header allocated %d bytes", grew)
		}
	})

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

// TestRemovedModeTrace: trace archives recorded in the removed sharded
// jump mode, with the sharded engine sessions no longer run, or with the
// removed rejection graph sampler neither open nor resume from their
// embedded seek points; each path fails with ErrCorrupt naming what was
// removed. sharded-p3.trace was written by `rlsim -n 16 -m 64 -engine
// sharded -shards 3 -snapevery 1 -traceout` before sessions lost the
// sharded engine.
func TestRemovedModeTrace(t *testing.T) {
	for _, c := range []struct{ file, removed string }{
		{"shardedjump-p3.trace", "shardedjump"},
		{"sharded-p3.trace", "sharded engine"},
		{"jump-expander-rejection.trace", "rejection sampler"},
	} {
		t.Run(c.file, func(t *testing.T) {
			raw := readTestdata(t, c.file)
			_, err := OpenTrace(bytes.NewReader(raw))
			wantRemoved(t, err, c.removed)

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
					wantRemoved(t, err, c.removed)
				}
			}
			if seeks < 2 {
				t.Fatalf("archive holds %d seek points, want the initial one and more", seeks)
			}
		})
	}
}

// TestResumeLegacyArtifacts resumes direct, jump, and graph jump
// snapshots written by earlier versions (the sharded jump mode and the
// rejection graph sampler still existed). It first requires the
// snapshot taken right after the resume, with no op in between, to equal
// `<name>.resumed.snap` byte for byte: the surviving modes kept their
// layout, so the decoded state (loads, index internals, clocks, RNG
// words) is exactly what those versions wrote. Then it replays the
// continuation script those sessions ran and requires
// `<name>.final.snap`. The continuations were re-recorded when the draw
// kernel changed (the ziggurat Exp/normal kernel in internal/rng), and
// the jump ones again when a jump move's time became one Exp gap with a
// per-run Poisson tally of the null activations: the same RNG words now
// yield a new sample of the same law, while the resumed bytes still pin
// the artifacts themselves. The jump-torus
// artifact also resumes with its meta rewritten to the forced-exact
// sampler code 1. jump-stray-shards was written by `rlsim -n 16 -m 64
// -engine jump -shards 4 -snapshot`, which recorded a shard count its
// jump engine never used; it resumes as the plain jump session it was
// (its resumed snapshot drops the count), and its final snapshot is the
// one the shard-free twin reaches.
func TestResumeLegacyArtifacts(t *testing.T) {
	for _, name := range []string{"direct", "jump", "jump-torus", "jump-torus-exact-meta", "jump-stray-shards"} {
		t.Run(name, func(t *testing.T) {
			file := name
			var art []byte
			if name == "jump-torus-exact-meta" {
				file = "jump-torus"
				art = rewriteSnapshot(t, readTestdata(t, file+".snap"), func(_, gs *int) { *gs = 1 }, nil)
			} else {
				art = readTestdata(t, file+".snap")
			}
			s, err := ResumeSession(bytes.NewReader(art))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got, want := sessionSnapshotBytes(t, s), readTestdata(t, file+".resumed.snap"); !bytes.Equal(got, want) {
				t.Fatalf("resumed state differs from the recorded one (%d vs %d bytes)", len(got), len(want))
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
			if got, want := sessionSnapshotBytes(t, s), readTestdata(t, file+".final.snap"); !bytes.Equal(got, want) {
				t.Fatalf("continuation diverged from the recorded run (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// newSession is Spec.NewSession failing tb on an error.
func newSession(tb testing.TB, spec Spec, n int, seed uint64) *Session {
	tb.Helper()
	s, err := spec.NewSession(n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// hugeExpanderBins are bin counts near MaxInt: not a square, and the
// largest square an int holds.
var hugeExpanderBins = []int{math.MaxInt, 3037000499 * 3037000499}

// overCeilingSnapshot is a well-framed snapshot whose header names a
// random-8190-regular jump session over 8192 bins, past the neighbor-slot
// ceiling, above an engine section of 8192 zero bytes.
func overCeilingSnapshot() []byte {
	return ForgeSnapshot(8192, Spec{Mode: JumpEngine, Topology: RandomRegularTopology(8190, 1)})
}

// forgeHeader frames an artifact with magic whose meta section records an
// expander over n bins, then engine (a sequential engine section, when
// non-nil), then the end section; every CRC is valid.
func forgeHeader(t testing.TB, magic string, n int, engine []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.WriteHeader(&buf, magic); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteSection(&buf, sectMeta, metaOf(n, Spec{Topology: ExpanderTopology()}, nil).encode()); err != nil {
		t.Fatal(err)
	}
	if engine != nil {
		if err := persist.WriteSection(&buf, sectEngine, engine); err != nil {
			t.Fatal(err)
		}
	}
	if err := persist.WriteSection(&buf, persist.KindEnd, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenTraceHugeExpander pins that a trace header's expander check
// does not overflow on bin counts near MaxInt: the non-square count is
// corrupt, the square one opens (a trace header sizes nothing by n) and
// its archive is simply empty.
func TestOpenTraceHugeExpander(t *testing.T) {
	for _, n := range hugeExpanderBins {
		tr, err := OpenTrace(bytes.NewReader(forgeHeader(t, persist.MagicTrace, n, nil)))
		if n != 3037000499*3037000499 {
			if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "square bin count") {
				t.Errorf("n=%d: got %v, want ErrCorrupt for a non-square expander", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m := tr.Meta(); m.Bins != n || m.Topology != "expander" {
			t.Fatalf("n=%d: trace meta %+v", n, m)
		}
		if _, err := tr.Next(); err != io.EOF {
			t.Fatalf("n=%d: Next = %v, want io.EOF", n, err)
		}
	}
}

// rewriteSnapshot re-frames a snapshot artifact with the meta section's
// engine mode and graph-sampler code passed through meta and the engine
// payload through patch (nil leaves a section as is), recomputing every
// section checksum.
func rewriteSnapshot(t testing.TB, art []byte, meta func(mode, gsampler *int), patch func([]byte)) []byte {
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
			m, err := decodeMeta(payload)
			if err != nil {
				t.Fatal(err)
			}
			if meta != nil {
				meta(&m.mode, &m.gsampler)
			}
			payload = m.encode()
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

// directSnapshot is a direct session's snapshot: its engine payload
// carries the ball-list sampler tag.
func directSnapshot(tb testing.TB) []byte {
	tb.Helper()
	s := newSession(tb, Spec{}, 8, 4)
	for i := 0; i < 24; i++ {
		s.AddBallRandom()
	}
	if err := s.RunFor(1); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withSamplerTag rewrites a direct snapshot's sampler tag, which follows
// the configuration state in the engine payload, to tag.
func withSamplerTag(tb testing.TB, art []byte, tag int) []byte {
	tb.Helper()
	return rewriteSnapshot(tb, art, nil, func(payload []byte) {
		d := persist.NewDec(payload)
		if _, err := loadvec.DecodeConfigState(d); err != nil {
			tb.Fatal(err)
		}
		off := len(payload) - d.Remaining()
		if got := persist.NewDec(payload[off:]).Int(); got != 1 {
			tb.Fatalf("sampler tag %d, want the ball list's 1", got)
		}
		var e persist.Enc
		e.Int(tag)
		copy(payload[off:], e.Bytes()) // small tags are one varint byte
	})
}

// TestTraceMetaGraphFamilies pins the archive header strings for the
// expander and random-regular topology codes.
func TestTraceMetaGraphFamilies(t *testing.T) {
	cases := []struct {
		spec     Spec
		topology string
	}{
		{Spec{Mode: JumpEngine, Topology: ExpanderTopology()}, "expander"},
		{Spec{Mode: JumpEngine, Topology: RandomRegularTopology(6, 5)}, "random-6-regular"},
	}
	for _, c := range cases {
		s := newSession(t, c.spec, 16, 9)
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
		if meta.Topology != c.topology {
			t.Fatalf("trace meta %+v, want topology %q", meta, c.topology)
		}
	}
}

// FuzzDecodeSnapshot: no input, however mangled, may panic the decoder.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, tc := range snapshotMatrix() {
		s := newSession(f, tc.spec, 16, 5)
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
	// The removed sharded jump mode's artifact, its payload behind a
	// sharded header, the sharded engine's artifact and its payload
	// behind a direct header, and the removed rejection sampler's
	// artifacts seed the error paths.
	legacy := readTestdata(f, "shardedjump-p3.snap")
	f.Add(legacy)
	f.Add(rewriteSnapshot(f, legacy, func(mode, _ *int) { *mode = int(ShardedEngine) }, nil))
	sharded := readTestdata(f, "sharded-p3.snap")
	f.Add(sharded)
	f.Add(rewriteSnapshot(f, sharded, func(mode, _ *int) { *mode = int(DirectEngine) }, nil))
	f.Add(readTestdata(f, "jump-expander-rejection.snap"))
	f.Add(readTestdata(f, "jump-rr16-auto-hybrid.snap"))
	// Mutations almost never keep a CRC valid, so the fuzzer cannot reach
	// a well-framed header with a huge bin count on its own.
	f.Add(readTestdata(f, "huge-bins.snap"))
	for _, n := range hugeExpanderBins {
		f.Add(forgeHeader(f, persist.MagicSnapshot, n, []byte{0}))
	}
	f.Add(overCeilingSnapshot())
	// The sampler tags without a codec, behind valid CRCs.
	direct := directSnapshot(f)
	f.Add(withSamplerTag(f, direct, 2))
	f.Add(withSamplerTag(f, direct, 3))
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
