package main

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestRunAllPlacements(t *testing.T) {
	for _, p := range []string{"all-in-one", "random", "two-choice", "spread", "delta-pair"} {
		if err := run(8, 32, 1, p, "perfect", "complete", "auto", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("placement %s: %v", p, err)
		}
	}
}

func TestRunTargets(t *testing.T) {
	cases := []string{"perfect", "disc=2", "time=0.5"}
	for _, target := range cases {
		if err := run(8, 32, 1, "all-in-one", target, "complete", "auto", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("target %s: %v", target, err)
		}
	}
}

func TestRunTopologies(t *testing.T) {
	for _, topo := range []string{"complete", "ring", "torus", "hypercube"} {
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "auto", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("topology %s: %v", topo, err)
		}
	}
}

func TestRunSpeedProfiles(t *testing.T) {
	for _, sp := range []string{"", "uniform", "bimodal", "powerlaw"} {
		if err := run(8, 64, 1, "all-in-one", "perfect", "complete", "auto", sp, "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("speeds %s: %v", sp, err)
		}
	}
}

func TestRunStrictAndTrace(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "direct", 0, true, 10, true, false); err != nil {
		t.Error(err)
	}
}

func TestRunCSVTrace(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "direct", 0, false, 10, false, true); err != nil {
		t.Error(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name                                        string
		placement, target, topology, speeds, engine string
	}{
		{"bad placement", "nope", "perfect", "complete", "", "direct"},
		{"bad target", "random", "nope", "complete", "", "direct"},
		{"bad target value", "random", "disc=x", "complete", "", "direct"},
		{"bad topology", "random", "perfect", "nope", "", "direct"},
		{"bad speeds", "random", "perfect", "complete", "nope", "direct"},
		{"bad engine", "random", "perfect", "complete", "", "nope"},
		{"jump+speeds", "random", "perfect", "complete", "uniform", "jump"},
	}
	for _, c := range cases {
		if err := run(8, 32, 1, c.placement, c.target, c.topology, "auto", c.speeds, c.engine, 0, false, 0, false, false); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// strict + topology is rejected in every engine mode (the run helper
	// threads strict as its own bool, so it gets its own case).
	if err := run(8, 32, 1, "random", "perfect", "ring", "auto", "", "direct", 0, true, 0, false, false); err == nil {
		t.Error("strict+topology: accepted")
	}
}

func TestRunJumpEngine(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "jump", 0, false, 0, false, false); err != nil {
		t.Error(err)
	}
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "jump", 0, false, 10, false, true); err != nil {
		t.Errorf("jump trace: %v", err)
	}
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "auto", "", "jump", 0, true, 0, false, false); err != nil {
		t.Errorf("jump strict: %v", err)
	}
	for _, topo := range []string{"ring", "torus", "hypercube", "expander", "random-4-regular"} {
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "auto", "", "jump", 0, false, 0, false, false); err != nil {
			t.Errorf("jump %s: %v", topo, err)
		}
	}
}

func TestRunGraphSamplerFlag(t *testing.T) {
	// Both forced modes run on a graph jump engine; everything else
	// rejects a non-auto sampler.
	for _, gs := range []string{"auto", "exact", "rejection"} {
		for _, topo := range []string{"ring", "expander", "random-6-regular"} {
			if err := run(16, 64, 1, "all-in-one", "perfect", topo, gs, "", "jump", 0, false, 0, false, false); err != nil {
				t.Errorf("jump %s sampler=%s: %v", topo, gs, err)
			}
		}
	}
	if err := run(16, 64, 1, "all-in-one", "perfect", "ring", "nope", "", "jump", 0, false, 0, false, false); err == nil {
		t.Error("bad sampler name: accepted")
	}
	if err := run(16, 64, 1, "all-in-one", "perfect", "complete", "rejection", "", "jump", 0, false, 0, false, false); err == nil {
		t.Error("sampler without topology: accepted")
	}
	if err := run(16, 64, 1, "all-in-one", "perfect", "ring", "rejection", "", "direct", 0, false, 0, false, false); err == nil {
		t.Error("sampler on the direct engine: accepted")
	}
	for _, topo := range []string{"random-0-regular", "random--3-regular", "random-x-regular", "random-16-regular"} {
		// d = 16 does not fit n = 16; the rest fail the flag parse.
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "auto", "", "jump", 0, false, 0, false, false); err == nil {
			t.Errorf("%s: accepted", topo)
		}
	}
}

func TestRunShardedEngine(t *testing.T) {
	for _, p := range []int{0, 1, 2} {
		if err := run(8, 64, 1, "random", "perfect", "complete", "auto", "", "sharded", p, false, 0, false, false); err != nil {
			t.Errorf("shards=%d: %v", p, err)
		}
	}
	if err := run(8, 64, 1, "random", "time=1", "complete", "auto", "", "sharded", 2, false, 20, false, true); err != nil {
		t.Errorf("sharded trace: %v", err)
	}
}

// TestRunRemovedEngineMode: -engine shardedjump names the removed mode on
// both the Runner and the session path.
func TestRunRemovedEngineMode(t *testing.T) {
	if err := run(8, 64, 1, "random", "perfect", "complete", "auto", "", "shardedjump", 2, false, 0, false, false); !errors.Is(err, errRemovedEngine) {
		t.Errorf("run: %v, want errRemovedEngine", err)
	}
	sf := sessionFlags{snapshot: filepath.Join(t.TempDir(), "s.snap")}
	if err := runSession(sf, 8, 64, 1, "random", "perfect", "complete", "auto", "", "shardedjump", 2, false, false); !errors.Is(err, errRemovedEngine) {
		t.Errorf("runSession: %v, want errRemovedEngine", err)
	}
}

func TestRunShardedRejectsBadCombos(t *testing.T) {
	cases := map[string]func() error{
		"sharded+topology": func() error {
			return run(16, 64, 1, "random", "perfect", "ring", "auto", "", "sharded", 2, false, 0, false, false)
		},
		"sharded+strict": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "auto", "", "sharded", 2, true, 0, false, false)
		},
		"shards without sharded engine": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "auto", "", "direct", 2, false, 0, false, false)
		},
		"shardedjump+strict": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "auto", "", "shardedjump", 2, true, 0, false, false)
		},
	}
	for name, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
