package rls

import (
	"bytes"
	"testing"
)

// benchSession builds a warmed session for the persistence benchmarks:
// n bins, 4n balls, run long enough that the samplers and indices carry
// non-trivial state.
func benchSession(b *testing.B, n int, spec Spec) *Session {
	b.Helper()
	s := newSession(b, spec, n, 42)
	for i := 0; i < 4*n; i++ {
		s.AddBallRandom()
	}
	if err := s.RunFor(2); err != nil {
		b.Fatal(err)
	}
	return s
}

var persistBenchModes = []struct {
	name string
	spec Spec
}{
	{"direct", Spec{}},
	{"jump", Spec{Mode: JumpEngine}},
}

// BenchmarkSnapshot measures serializing a full session, with the
// artifact's compactness reported as bytes/ball.
func BenchmarkSnapshot(b *testing.B) {
	const n = 4096
	for _, mode := range persistBenchModes {
		b.Run(mode.name, func(b *testing.B) {
			s := benchSession(b, n, mode.spec)
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := s.Snapshot(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len())/float64(s.M()), "bytes/ball")
		})
	}
}

// BenchmarkRestore measures decoding a snapshot back into a live
// session, validation and index rebuilds included.
func BenchmarkRestore(b *testing.B) {
	const n = 4096
	for _, mode := range persistBenchModes {
		b.Run(mode.name, func(b *testing.B) {
			s := benchSession(b, n, mode.spec)
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ResumeSession(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(raw))/float64(s.M()), "bytes/ball")
		})
	}
}

// countingWriter tallies archive bytes without retaining them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// BenchmarkTraceAppend measures the per-record cost of streaming a trace
// archive (no embedded snapshots), with the record size as bytes/record.
// The writer buffers until Close, so sizes are read off closed archives:
// the same session's empty archive (header, meta, initial snapshot, end
// section) is the baseline subtracted from the full one.
func BenchmarkTraceAppend(b *testing.B) {
	s := benchSession(b, 1024, Spec{Mode: JumpEngine})
	var empty, cw countingWriter
	etw, err := s.NewTraceWriter(&empty, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := etw.Close(); err != nil {
		b.Fatal(err)
	}
	tw, err := s.NewTraceWriter(&cw, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tw.Point(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cw.n-empty.n)/float64(b.N), "bytes/record")
}
