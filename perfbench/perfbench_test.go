package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
)

func tinyOptions(t *testing.T) options {
	return options{seed: 3, procs: 2, tiny: true, stateDir: t.TempDir()}
}

// TestTinyWorkloads runs every workload at test sizes: all output checks
// pass and every end-to-end metric is reported.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep := newReport()
			runWorkload(w, tinyOptions(t), 400*time.Millisecond, nil, rep)
			rep.set("max_rss_mb", maxRSSMB(), "MB")
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", rep.failed, rep.attempted, rep.problems)
			}
			var out bytes.Buffer
			if err := rep.printResult(&out, endToEnd); err != nil {
				t.Fatal(err)
			}
			for _, m := range readSpec(t).EndToEnd {
				if v := rep.metrics[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %v %s, want a positive measurement in %s", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
		})
	}
}

// TestTinyTraced runs the traced run at test sizes: every per-layer
// metric is reported and the spans were recorded.
func TestTinyTraced(t *testing.T) {
	rep := newReport()
	tr := runTraced("sweep-graph", tinyOptions(t), 600*time.Millisecond, rep)
	if rep.failed != 0 {
		t.Fatalf("%d checks failed: %v", rep.failed, rep.problems)
	}
	var out bytes.Buffer
	if err := rep.printResult(&out, perLayer); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, m := range readSpec(t).PerLayer {
		if got := rep.metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
		}
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
}

type specMetric struct{ Name, Unit string }

type benchSpec struct {
	Workloads []specMetric `json:"workloads"`
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONNames(t *testing.T) {
	spec := readSpec(t)
	names := func(xs []specMetric) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), workloads},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", c.what, c.got, c.want)
		}
	}
}

// TestServeCheckCatchesDroppedEvent plays a tenant's stream the way the
// service would, once faithfully and once with one add event lost,
// before or after the restart; the replay check passes the first and
// catches the others.
func TestServeCheckCatchesDroppedEvent(t *testing.T) {
	c := serveConfigFor(tinyOptions(t))
	for _, jump := range []bool{false, true} {
		for _, drop := range []int{-1, 3, 15} {
			l := &tenantLog{id: "s-1", seed: 11, jump: jump, gen: rng.New(12), restart: 10}
			for b := 0; b < 20; b++ {
				adds, _ := l.nextBody(c.bins)
				l.adds = append(l.adds, adds)
			}
			s := replaySession(c, l)
			for i, adds := range l.adds {
				if i == l.restart {
					l.before = statsOf(s)
				}
				for k, bin := range adds {
					if i == drop && k == 0 {
						continue // the lost event
					}
					if err := s.AddBall(bin); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < addsPerBatch; k++ {
					if _, err := s.RemoveRandomBall(); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.RunFor(runFor); err != nil {
					t.Fatal(err)
				}
			}
			l.after, l.restored = statsOf(s), true
			err := verifyTenant(c, l)
			if drop < 0 && err != nil {
				t.Errorf("jump=%v, faithful stream: %v", jump, err)
			}
			if drop >= 0 && err == nil {
				t.Errorf("jump=%v: the event dropped in batch %d went unnoticed", jump, drop)
			}
		}
	}
}

// TestScrapeQuantile checks the /metrics histogram estimate against
// hand-computed buckets.
func TestScrapeQuantile(t *testing.T) {
	sc := scrape{le: []float64{0.001, 0.002, 0.004, 1e308}, cum: []float64{0, 50, 100, 100}}
	for _, c := range []struct{ q, want float64 }{{0.5, 0.002}, {0.75, 0.003}} {
		if got := sc.applyQuantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
}
