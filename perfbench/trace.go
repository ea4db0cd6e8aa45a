package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. N is the number of operations the span
// covers (a batch of draws, one run's moves), so per-operation cost is
// (End − Start) / N. Parent is the id of the enclosing span, −1 at the
// top; Run groups the spans of one workload loop or probe.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// tracer keeps spans in memory for the length of a traced run. A nil
// *tracer records nothing, so untraced loops pay one nil check per call.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new run id for the spans that follow.
func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

// begin opens a span and returns its id (−1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

// end closes span id, crediting it with n operations.
func (t *tracer) end(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].N = n
}

// record adds an already-timed span (used where the caller measured the
// interval itself, e.g. a request timed from its due time).
func (t *tracer) record(name string, parent int, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n,
	})
}

// perOp is a layer's mean ns per operation over all spans of that name.
func (t *tracer) perOp(name string) float64 {
	var ns, ops int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			ops += s.N
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(ns) / float64(ops)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
