package rls

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/persist"
)

// This file is the top of the snapshot stack: Session gains
// Snapshot/ResumeSession (full engine state, resumable byte-identically)
// and a binary trace archive (streamed trajectory records with embedded
// snapshots as seek points). internal/persist owns the wire format;
// the layers below own their own payloads.
//
// Byte-identical resume contract: for every engine mode × strict ×
// topology × shard count, a session restored from a snapshot produces
// exactly the bytes the uninterrupted session would have — the same
// run results, the same traced points, and the same stream of random
// draws (churn placement included). The property test in
// persist_test.go pins this across the full mode matrix; sharded
// snapshots are taken between Runs, i.e. at epoch barriers, which is
// the only point their cross-shard machinery is quiescent.

// Snapshot artifact section kinds (trace archives reuse meta and add
// their own).
const (
	sectMeta          = 1 // session shape + optional caller note
	sectEngine        = 2 // sequential engine payload (direct/jump)
	sectSharded       = 3 // sharded engine payload
	sectTraceRecord   = 4 // one trajectory record
	sectTraceSnapshot = 5 // embedded full snapshot artifact (seek point)
)

// removedEngineMode is the header code of the removed sharded jump
// engine mode. Its artifacts fail to decode with an error naming it.
const removedEngineMode = 3

// rejectionSamplerCode is the meta code of the removed rejection-within-
// blocks graph sampler. The meta section keeps its graph-sampler field:
// 0 (auto) and 1 (exact) both name the exact admissible index, the only
// graph sampler left, and the encoder always writes 0.
const rejectionSamplerCode = 2

// checkSamplerCode validates a header's graph-sampler code.
func checkSamplerCode(gs int) error {
	if gs == rejectionSamplerCode {
		return persist.Corruptf("graph sampler %d is the removed rejection sampler", gs)
	}
	if gs < 0 || gs > rejectionSamplerCode {
		return persist.Corruptf("unknown graph sampler %d", gs)
	}
	return nil
}

// Snapshot writes the session's complete state — loads, sampler and
// index internals, clocks, counters, and RNG stream positions — as a
// binary snapshot artifact. A session resumed from it (ResumeSession)
// continues byte-identically to one that was never serialized. Sharded
// sessions snapshot between runs, which is an epoch barrier: the
// cross-shard machinery is empty there, so the artifact captures the
// full engine state.
func (s *Session) Snapshot(w io.Writer) error { return s.SnapshotWithNote(w, nil) }

// SnapshotWithNote is Snapshot with an opaque caller note stored in the
// artifact header — the service keeps each tenant's identity and config
// there, so one tenant is one self-describing file.
func (s *Session) SnapshotWithNote(w io.Writer, note []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(w, note)
}

func (s *Session) snapshotLocked(w io.Writer, note []byte) error {
	bw := bufio.NewWriter(w)
	if err := persist.WriteHeader(bw, persist.MagicSnapshot); err != nil {
		return err
	}
	if err := persist.WriteSection(bw, sectMeta, metaOf(s.engine.Bins(), s.spec, note).encode()); err != nil {
		return err
	}
	var enc persist.Enc
	kind := uint64(sectEngine)
	switch eng := s.engine.(type) {
	case sequentialSession:
		eng.e.EncodeState(&enc)
	case shardedSession:
		kind = sectSharded
		eng.e.EncodeState(&enc)
	default:
		return fmt.Errorf("rls: session engine %T has no snapshot codec", s.engine)
	}
	if err := persist.WriteSection(bw, kind, enc.Bytes()); err != nil {
		return err
	}
	if err := persist.WriteSection(bw, persist.KindEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// snapMeta is the session-shape section shared by snapshots and trace
// archives: the bin count, the Spec fields a session carries (the
// topology as its family code — 0 complete, 1 ring, 2 torus(side),
// 3 hypercube(dim), 4 expander, 5 random-regular(d) with its
// construction seed), the graph-sampler code, and the caller note.
type snapMeta struct {
	n, mode, shards   int
	strict            bool
	topoKind, topoArg int
	topoSeed          uint64
	gsampler          int
	note              []byte
}

// metaOf records a session's shape; the graph sampler is always the
// exact index (see rejectionSamplerCode).
func metaOf(n int, s Spec, note []byte) snapMeta {
	t := s.Topology
	return snapMeta{
		n: n, mode: int(s.Mode), shards: s.Shards, strict: s.Strict,
		topoKind: int(t.family), topoArg: t.arg, topoSeed: t.seed,
		note: note,
	}
}

func (m snapMeta) encode() []byte {
	var e persist.Enc
	e.Int(m.n)
	e.Int(m.mode)
	e.Int(m.shards)
	e.Bool(m.strict)
	e.Int(m.topoKind)
	e.Int(m.topoArg)
	e.U64(m.topoSeed)
	e.Int(m.gsampler)
	e.Bytes8(m.note)
	return e.Bytes()
}

func decodeMeta(payload []byte) (snapMeta, error) {
	d := persist.NewDec(payload)
	m := snapMeta{
		n:        d.Int(),
		mode:     d.Int(),
		shards:   d.Int(),
		strict:   d.Bool(),
		topoKind: d.Int(),
		topoArg:  d.Int(),
		topoSeed: d.U64(),
		gsampler: d.Int(),
		note:     d.Bytes8(),
	}
	return m, d.Err()
}

// specFromMeta decodes a header into the Spec it records; every Validate
// rejection comes back as persist.ErrCorrupt.
func specFromMeta(m snapMeta) (Spec, error) {
	if m.mode == removedEngineMode {
		return Spec{}, persist.Corruptf("engine mode %d is the removed shardedjump engine", m.mode)
	}
	if err := checkSamplerCode(m.gsampler); err != nil {
		return Spec{}, err
	}
	if m.gsampler != 0 && (m.mode != int(JumpEngine) || m.topoKind == int(completeFamily)) {
		return Spec{}, persist.Corruptf("graph sampler override without a graph jump engine")
	}
	if m.topoKind < 0 || m.topoKind >= len(topologyFamilies) {
		return Spec{}, persist.Corruptf("unknown topology code %d", m.topoKind)
	}
	t := Topology{family: topologyFamily(m.topoKind)}
	if t.family == torusFamily || t.family == hypercubeFamily || t.family == randomRegularFamily {
		t.arg = m.topoArg
	}
	if t.family == randomRegularFamily {
		t.seed = m.topoSeed
	}
	s := Spec{Mode: EngineMode(m.mode), Strict: m.strict, Topology: t}
	// Earlier writers recorded a shard count that never reached a direct
	// or jump engine (rlsim -shards without -engine sharded); drop it.
	if s.Mode == ShardedEngine {
		s.Shards = m.shards
	}
	if err := s.Validate(m.n); err != nil {
		return Spec{}, persist.Corruptf("%v", err)
	}
	return s, nil
}

// ResumeSession reads a snapshot artifact and returns a session that
// continues byte-identically from the captured state. It never panics
// on malformed input: truncation, corruption, checksum mismatches, and
// version skew surface as persist's typed errors.
func ResumeSession(r io.Reader) (*Session, error) {
	s, _, err := ResumeSessionWithNote(r)
	return s, err
}

// ResumeSessionWithNote is ResumeSession returning the caller note the
// artifact was written with (nil when absent).
func ResumeSessionWithNote(r io.Reader) (*Session, []byte, error) {
	br := bufio.NewReader(r)
	if err := persist.ReadHeader(br, persist.MagicSnapshot); err != nil {
		return nil, nil, err
	}
	sr := persist.NewSectionReader(br)
	kind, payload, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("%w: missing header section", persist.ErrTruncated)
		}
		return nil, nil, err
	}
	if kind != sectMeta {
		return nil, nil, persist.Corruptf("snapshot leads with section %d, want meta", kind)
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return nil, nil, err
	}
	kind, payload, err = sr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("%w: missing engine section", persist.ErrTruncated)
		}
		return nil, nil, err
	}
	// Both engine payloads write at least one varint per bin (the loads;
	// the sharded one also its stale snapshot), so a bin count the payload
	// cannot hold is corrupt — caught before any O(n) work on the header.
	if m.n > len(payload) {
		return nil, nil, persist.Corruptf("header claims %d bins, the engine section holds %d bytes", m.n, len(payload))
	}
	spec, err := specFromMeta(m)
	if err != nil {
		return nil, nil, err
	}
	s, err := spec.NewSession(m.n, 0)
	if err != nil {
		return nil, nil, persist.Corruptf("%v", err)
	}
	d := persist.NewDec(payload)
	switch eng := s.engine.(type) {
	case sequentialSession:
		if kind != sectEngine {
			return nil, nil, persist.Corruptf("snapshot engine section kind %d, want %d", kind, sectEngine)
		}
		if err := eng.e.DecodeState(d); err != nil {
			return nil, nil, err
		}
	case shardedSession:
		if kind != sectSharded {
			return nil, nil, persist.Corruptf("snapshot engine section kind %d, want %d", kind, sectSharded)
		}
		if err := eng.e.DecodeState(d); err != nil {
			return nil, nil, err
		}
	}
	if kind, _, err = sr.Next(); err != nil {
		if err == io.EOF {
			return nil, nil, fmt.Errorf("%w: missing end section", persist.ErrTruncated)
		}
		return nil, nil, err
	}
	if kind != persist.KindEnd {
		return nil, nil, persist.Corruptf("trailing section %d after the engine state", kind)
	}
	return s, m.note, nil
}

// TraceRecord is one row of a trace archive: the session's cumulative
// clocks and balance at a trajectory point or a churn event.
type TraceRecord struct {
	// Kind is "point" (a sampled trajectory point), "add", or "remove"
	// (a churn event, recorded after it applied).
	Kind string
	// Bin is the churned bin (-1 for points).
	Bin         int
	Time        float64
	Activations int64
	Moves       int64
	Balls       int
	Disc        float64
}

// Trace record kind codes on the wire.
const (
	traceKindPoint = iota
	traceKindAdd
	traceKindRemove
)

// TraceWriter streams a session's trajectory into a binary trace
// archive: one record per Point/Churn call, with a full snapshot
// embedded at the start and (optionally) every snapEvery records — the
// seek points a reader can resume simulation from. Not safe for
// concurrent use; the session itself may keep serving other callers.
type TraceWriter struct {
	s         *Session
	bw        *bufio.Writer
	snapEvery int
	sinceSnap int
	err       error
}

// NewTraceWriter starts a trace archive for the session on w: header,
// shape metadata, and the initial embedded snapshot. snapEvery > 0
// embeds an additional snapshot after every snapEvery records; 0 keeps
// only the initial one.
func (s *Session) NewTraceWriter(w io.Writer, snapEvery int) (*TraceWriter, error) {
	if snapEvery < 0 {
		return nil, fmt.Errorf("rls: NewTraceWriter with negative snapshot interval %d", snapEvery)
	}
	s.mu.Lock()
	meta := metaOf(s.engine.Bins(), s.spec, nil)
	s.mu.Unlock()
	bw := bufio.NewWriter(w)
	if err := persist.WriteHeader(bw, persist.MagicTrace); err != nil {
		return nil, err
	}
	if err := persist.WriteSection(bw, sectMeta, meta.encode()); err != nil {
		return nil, err
	}
	tw := &TraceWriter{s: s, bw: bw, snapEvery: snapEvery}
	if err := tw.embedSnapshot(); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *TraceWriter) embedSnapshot() error {
	var buf bytes.Buffer
	if err := tw.s.Snapshot(&buf); err != nil {
		tw.err = err
		return err
	}
	if err := persist.WriteSection(tw.bw, sectTraceSnapshot, buf.Bytes()); err != nil {
		tw.err = err
		return err
	}
	tw.sinceSnap = 0
	return nil
}

// Point records the session's current clocks and balance as a
// trajectory point.
func (tw *TraceWriter) Point() error { return tw.record(traceKindPoint, -1) }

// Churn records a just-applied churn event ("add" or "remove") against
// the given bin (pass -1 for a random-bin event).
func (tw *TraceWriter) Churn(kind string, bin int) error {
	switch kind {
	case "add":
		return tw.record(traceKindAdd, bin)
	case "remove":
		return tw.record(traceKindRemove, bin)
	}
	return fmt.Errorf("rls: unknown churn kind %q (want add|remove)", kind)
}

func (tw *TraceWriter) record(kind, bin int) error {
	if tw.err != nil {
		return tw.err
	}
	st := tw.s.Stats()
	var enc persist.Enc
	enc.Int(kind)
	enc.Int(bin)
	enc.F64(st.Time)
	enc.I64(st.Activations)
	enc.I64(st.Moves)
	enc.Int(st.Balls)
	enc.F64(st.Disc)
	if err := persist.WriteSection(tw.bw, sectTraceRecord, enc.Bytes()); err != nil {
		tw.err = err
		return err
	}
	tw.sinceSnap++
	if tw.snapEvery > 0 && tw.sinceSnap >= tw.snapEvery {
		return tw.embedSnapshot()
	}
	return nil
}

// Close terminates the archive with an end section and flushes. The
// writer is unusable afterwards.
func (tw *TraceWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := persist.WriteSection(tw.bw, persist.KindEnd, nil); err != nil {
		tw.err = err
		return err
	}
	tw.err = fmt.Errorf("rls: trace writer is closed")
	return tw.bw.Flush()
}

// TraceMeta is the shape header of a trace archive.
type TraceMeta struct {
	Bins     int
	Mode     EngineMode
	Shards   int
	Strict   bool
	Topology string // complete|ring|torus|hypercube|expander|random-<d>-regular
}

// TraceItem is one archive entry: exactly one of Record (a trajectory
// or churn record) and Snapshot (an embedded snapshot artifact, which
// ResumeSession can decode) is set.
type TraceItem struct {
	Record   *TraceRecord
	Snapshot []byte
}

// TraceReader iterates a trace archive.
type TraceReader struct {
	sr   *persist.SectionReader
	meta TraceMeta
	done bool
}

// OpenTrace reads a trace archive header and returns an iterator over
// its records and embedded snapshots.
func OpenTrace(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	if err := persist.ReadHeader(br, persist.MagicTrace); err != nil {
		return nil, err
	}
	sr := persist.NewSectionReader(br)
	kind, payload, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing header section", persist.ErrTruncated)
		}
		return nil, err
	}
	if kind != sectMeta {
		return nil, persist.Corruptf("trace leads with section %d, want meta", kind)
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return nil, err
	}
	spec, err := specFromMeta(m)
	if err != nil {
		return nil, err
	}
	return &TraceReader{
		sr: sr,
		meta: TraceMeta{
			Bins: m.n, Mode: spec.Mode, Shards: spec.Shards, Strict: spec.Strict,
			Topology: spec.Topology.Name(),
		},
	}, nil
}

// Meta returns the archive's session shape.
func (tr *TraceReader) Meta() TraceMeta { return tr.meta }

// Next returns the next archive entry, or io.EOF past the last one. An
// archive cut off by a crash ends cleanly at its last complete record
// (the end section is simply absent); a partially written section
// returns ErrTruncated.
func (tr *TraceReader) Next() (TraceItem, error) {
	if tr.done {
		return TraceItem{}, io.EOF
	}
	kind, payload, err := tr.sr.Next()
	if err != nil {
		if err == io.EOF {
			tr.done = true
			return TraceItem{}, io.EOF
		}
		return TraceItem{}, err
	}
	switch kind {
	case persist.KindEnd:
		tr.done = true
		return TraceItem{}, io.EOF
	case sectTraceSnapshot:
		return TraceItem{Snapshot: payload}, nil
	case sectTraceRecord:
		d := persist.NewDec(payload)
		code := d.Int()
		rec := &TraceRecord{
			Bin:         d.Int(),
			Time:        d.F64(),
			Activations: d.I64(),
			Moves:       d.I64(),
			Balls:       d.Int(),
			Disc:        d.F64(),
		}
		if d.Err() != nil {
			return TraceItem{}, d.Err()
		}
		switch code {
		case traceKindPoint:
			rec.Kind = "point"
		case traceKindAdd:
			rec.Kind = "add"
		case traceKindRemove:
			rec.Kind = "remove"
		default:
			return TraceItem{}, persist.Corruptf("unknown trace record kind %d", code)
		}
		return TraceItem{Record: rec}, nil
	default:
		return TraceItem{}, persist.Corruptf("unknown trace section kind %d", kind)
	}
}
