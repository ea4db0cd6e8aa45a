package main

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestRunAllPlacements(t *testing.T) {
	for _, p := range []string{"all-in-one", "random", "two-choice", "spread", "delta-pair"} {
		if err := run(8, 32, 1, p, "perfect", "complete", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("placement %s: %v", p, err)
		}
	}
}

func TestRunTargets(t *testing.T) {
	cases := []string{"perfect", "disc=2", "time=0.5"}
	for _, target := range cases {
		if err := run(8, 32, 1, "all-in-one", target, "complete", "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("target %s: %v", target, err)
		}
	}
}

func TestRunTopologies(t *testing.T) {
	for _, topo := range []string{"complete", "ring", "torus", "hypercube"} {
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "", "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("topology %s: %v", topo, err)
		}
	}
}

func TestRunSpeedProfiles(t *testing.T) {
	for _, sp := range []string{"", "uniform", "bimodal", "powerlaw"} {
		if err := run(8, 64, 1, "all-in-one", "perfect", "complete", sp, "direct", 0, false, 0, false, false); err != nil {
			t.Errorf("speeds %s: %v", sp, err)
		}
	}
}

func TestRunStrictAndTrace(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "", "direct", 0, true, 10, true, false); err != nil {
		t.Error(err)
	}
}

func TestRunCSVTrace(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "", "direct", 0, false, 10, false, true); err != nil {
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
		if err := run(8, 32, 1, c.placement, c.target, c.topology, c.speeds, c.engine, 0, false, 0, false, false); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// strict + topology is rejected in every engine mode (the run helper
	// threads strict as its own bool, so it gets its own case).
	if err := run(8, 32, 1, "random", "perfect", "ring", "", "direct", 0, true, 0, false, false); err == nil {
		t.Error("strict+topology: accepted")
	}
}

func TestRunJumpEngine(t *testing.T) {
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "", "jump", 0, false, 0, false, false); err != nil {
		t.Error(err)
	}
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "", "jump", 0, false, 10, false, true); err != nil {
		t.Errorf("jump trace: %v", err)
	}
	if err := run(8, 32, 1, "all-in-one", "perfect", "complete", "", "jump", 0, true, 0, false, false); err != nil {
		t.Errorf("jump strict: %v", err)
	}
	for _, topo := range []string{"ring", "torus", "hypercube", "expander", "random-4-regular"} {
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "", "jump", 0, false, 0, false, false); err != nil {
			t.Errorf("jump %s: %v", topo, err)
		}
	}
	for _, topo := range []string{"random-0-regular", "random--3-regular", "random-x-regular", "random-16-regular"} {
		// d = 16 does not fit n = 16; the rest fail the flag parse.
		if err := run(16, 64, 1, "all-in-one", "perfect", topo, "", "jump", 0, false, 0, false, false); err == nil {
			t.Errorf("%s: accepted", topo)
		}
	}
}

// TestRunFlagSetsNeverPanic: flag sets the library constructors would
// panic on come back as errors, on the Runner path and on the session
// path (-snapshot), where NewSession's panics are recovered.
func TestRunFlagSetsNeverPanic(t *testing.T) {
	snap := sessionFlags{snapshot: filepath.Join(t.TempDir(), "s.snap")}
	cases := []struct {
		name     string
		n, m     int
		topology string
		engine   string
		shards   int
		strict   bool
		session  bool
	}{
		{"-n 0", 0, 64, "complete", "direct", 0, false, false},
		{"-m 0", 8, 0, "complete", "direct", 0, false, false},
		{"-snapshot -engine sharded -strict", 8, 64, "complete", "sharded", 0, true, true},
		{"-snapshot -engine sharded -topology ring", 8, 64, "ring", "sharded", 0, false, true},
		{"-snapshot -strict -topology ring", 8, 64, "ring", "direct", 0, true, true},
		{"-snapshot -engine sharded -shards -3", 8, 64, "complete", "sharded", -3, false, true},
		{"-snapshot -n 0", 0, 64, "complete", "direct", 0, false, true},
		{"-snapshot -n 15 -engine jump -topology random-3-regular", 15, 64, "random-3-regular", "jump", 0, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.session {
				err = runSession(snap, c.n, c.m, 1, "random", "perfect", c.topology, "", c.engine, c.shards, c.strict, false)
			} else {
				err = run(c.n, c.m, 1, "random", "perfect", c.topology, "", c.engine, c.shards, c.strict, 0, false, false)
			}
			if err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestRunShardedEngine(t *testing.T) {
	for _, p := range []int{0, 1, 2} {
		if err := run(8, 64, 1, "random", "perfect", "complete", "", "sharded", p, false, 0, false, false); err != nil {
			t.Errorf("shards=%d: %v", p, err)
		}
	}
	if err := run(8, 64, 1, "random", "time=1", "complete", "", "sharded", 2, false, 20, false, true); err != nil {
		t.Errorf("sharded trace: %v", err)
	}
}

// TestRunRemovedEngineMode: -engine shardedjump names the removed mode on
// both the Runner and the session path.
func TestRunRemovedEngineMode(t *testing.T) {
	if err := run(8, 64, 1, "random", "perfect", "complete", "", "shardedjump", 2, false, 0, false, false); !errors.Is(err, errRemovedEngine) {
		t.Errorf("run: %v, want errRemovedEngine", err)
	}
	sf := sessionFlags{snapshot: filepath.Join(t.TempDir(), "s.snap")}
	if err := runSession(sf, 8, 64, 1, "random", "perfect", "complete", "", "shardedjump", 2, false, false); !errors.Is(err, errRemovedEngine) {
		t.Errorf("runSession: %v, want errRemovedEngine", err)
	}
}

func TestRunShardedRejectsBadCombos(t *testing.T) {
	cases := map[string]func() error{
		"sharded+topology": func() error {
			return run(16, 64, 1, "random", "perfect", "ring", "", "sharded", 2, false, 0, false, false)
		},
		"sharded+strict": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "", "sharded", 2, true, 0, false, false)
		},
		"shards without sharded engine": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "", "direct", 2, false, 0, false, false)
		},
		"shardedjump+strict": func() error {
			return run(16, 64, 1, "random", "perfect", "complete", "", "shardedjump", 2, true, 0, false, false)
		},
	}
	for name, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
