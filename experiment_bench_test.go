package rls_test

// experiment_bench_test.go exposes every experiment registered in
// internal/harness as a sub-benchmark of BenchmarkExperiment:
// `go test -run xxx -bench 'Experiment/T1$'` regenerates Theorem 1's sweep,
// `-bench Experiment` regenerates everything. Each iteration runs the full
// Quick-scale experiment; set RLS_BENCH_PRINT=1 to print the resulting
// tables to stderr (cmd/rlsweep prints them with more control). It is an
// external test package because internal/harness imports package rls.

import (
	"os"
	"testing"

	"repro/internal/harness"
)

// BenchmarkExperiment runs each registered experiment per b iteration and
// reports its row count, so regressions in sweep coverage are visible.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range harness.All() {
		b.Run(e.ID, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				tb := e.Run(harness.RunConfig{Seed: uint64(i) + 1, Scale: harness.Quick})
				rows = len(tb.Rows)
				if i == 0 && os.Getenv("RLS_BENCH_PRINT") != "" {
					tb.Render(os.Stderr)
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
