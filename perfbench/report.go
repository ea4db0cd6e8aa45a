package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
)

// metric is one named measurement with its unit. Alias, if set, is the
// name the table shows next to it: what the metric stands for in this
// workload.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Alias string  `json:"-"`
}

// report collects a run's metrics in insertion order plus its check
// outcome. Failures are counted against attempts, so error_ratio is
// failed/attempted.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.setAs(name, "", v, unit) }

// setAs records a metric together with the name it stands for here.
func (r *report) setAs(name, alias string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, Alias: alias}
}

// fail records a failed check; the first few are printed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// merge adds another report's attempts and failures, and those of its
// metrics that keep accepts (all of them if keep is nil).
func (r *report) merge(o *report, keep func(name string) bool) {
	for _, n := range o.names {
		if m := o.metrics[n]; keep == nil || keep(n) {
			r.setAs(n, m.Alias, m.Value, m.Unit)
		}
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// printTable writes every metric as "name value unit", one per line.
func (r *report) printTable(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		if m.Alias != "" {
			n += " (" + m.Alias + ")"
		}
		fmt.Fprintf(w, "%-48s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(w, "check: ... %d more failures\n", len(r.problems)-10)
			break
		}
		fmt.Fprintf(w, "check: %s\n", p)
	}
}

// printResult writes the final JSON line with the metrics named in keys.
func (r *report) printResult(w io.Writer, keys []string) error {
	out := map[string]metric{}
	for _, k := range keys {
		m, ok := r.metrics[k]
		if !ok {
			return fmt.Errorf("metric %s was not measured", k)
		}
		out[k] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
