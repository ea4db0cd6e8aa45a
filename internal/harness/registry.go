package harness

import (
	"fmt"
	"sort"
)

// Scale selects the experiment size. Quick keeps every experiment under a
// couple of seconds for tests and benchmarks; Full is the scale
// rlsweep -scale full runs.
type Scale int

const (
	// Quick runs reduced sweeps suitable for go test / go bench.
	Quick Scale = iota
	// Full runs the larger sweeps (rlsweep -scale full).
	Full
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	// Seed is the root seed; all replication streams split from it.
	Seed uint64
	// Scale selects Quick or Full sweeps.
	Scale Scale
}

// Experiment couples an experiment ID with the code regenerating its
// table; rlsweep -list prints the registered IDs with their titles.
type Experiment struct {
	// ID is the registry key (T1, LB2, DML, ...).
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the paper artifact (theorem/lemma/figure/section).
	PaperRef string
	// Claim states what the paper asserts and this experiment checks.
	Claim string
	// Run executes the experiment and returns its table.
	Run func(cfg RunConfig) *Table
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs panic at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
