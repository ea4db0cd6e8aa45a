package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	rls "repro"
	"repro/internal/spectest"
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
				err = runSession(snap, c.n, c.m, 1, "random", "perfect", c.topology, "", c.engine, c.shards, c.strict, 0, false)
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
	if err := runSession(sf, 8, 64, 1, "random", "perfect", "complete", "", "shardedjump", 2, false, 0, false); !errors.Is(err, errRemovedEngine) {
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

// TestRunShardsNeedShardedEngine: -shards outside -engine sharded fails
// with one message on the Runner path and on the session path, which
// used to accept it and record the stray count in its snapshot.
func TestRunShardsNeedShardedEngine(t *testing.T) {
	const want = "rls: shards and shard epochs need the sharded engine, not the jump engine"
	snap := filepath.Join(t.TempDir(), "s.snap")
	for path, err := range map[string]error{
		"run":        run(16, 64, 1, "random", "perfect", "complete", "", "jump", 4, false, 0, false, false),
		"runSession": runSession(sessionFlags{snapshot: snap}, 16, 64, 1, "random", "perfect", "complete", "", "jump", 4, false, 0, false),
	} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", path, err, want)
		}
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("the session path wrote a snapshot: %v", err)
	}
}

// TestSpecValidateAgreesWithConstruction walks the spectest cross-product
// through the flags: every case they can spell (no unknown engine mode,
// no Fenwick sampler, no shard epoch, speeds only as the uniform profile,
// and only the torus or hypercube parameter -n fixes) runs on the Runner
// path exactly when Validate accepts it and on the session path exactly
// when Spec.NewSession does, and otherwise fails with that message.
func TestSpecValidateAgreesWithConstruction(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout; devnull.Close() }()

	sf := sessionFlags{snapshot: filepath.Join(t.TempDir(), "s.snap")}
	for _, c := range spectest.Cases() {
		engine, ok := c.EngineName()
		topology, named := c.TopologyName()
		speeds := ""
		if c.Spec.Speeds != nil {
			speeds = "uniform"
		}
		if !ok || !named || c.Spec.Fenwick || c.Spec.ShardEpoch != 0 ||
			(c.Spec.Speeds != nil && !reflect.DeepEqual(c.Spec.Speeds, uniformSpeeds(c.N))) {
			continue
		}
		s := c.Spec
		err := run(c.N, c.N, spectest.Seed, "random", "time=0.2", topology, speeds, engine, s.Shards, s.Strict, 0, false, false)
		if got, want := spectest.Want(err), spectest.Want(s.Validate(c.N)); got != want {
			t.Errorf("%s: run answered %q, want %q", c.Name, got, want)
		}
		err = runSession(sf, c.N, c.N, spectest.Seed, "random", "time=0.2", topology, speeds, engine, s.Shards, s.Strict, 0, false)
		if got, want := spectest.Want(err), spectest.Want(c.SessionWant()); got != want {
			t.Errorf("%s: runSession answered %q, want %q", c.Name, got, want)
		}
	}
}

// TestRunSessionRejectsRunnerOnlyFlags: the durable path answers -engine
// sharded with the library's session rejection, and -trace and -csv —
// which only the Runner path prints — with an error instead of dropping
// them; nothing is written in either case.
func TestRunSessionRejectsRunnerOnlyFlags(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "s.snap")
	sf := sessionFlags{snapshot: snap}
	if err := runSession(sf, 8, 64, 1, "random", "perfect", "complete", "", "sharded", 2, false, 0, false); !errors.Is(err, rls.ErrSessionSpec) {
		t.Errorf("-engine sharded: %v, want ErrSessionSpec", err)
	}
	for name, err := range map[string]error{
		"-trace": runSession(sf, 8, 64, 1, "random", "perfect", "complete", "", "direct", 0, false, 10, false),
		"-csv":   runSession(sf, 8, 64, 1, "random", "perfect", "complete", "", "direct", 0, false, 100, true),
	} {
		if err == nil || !strings.Contains(err.Error(), "-trace and -csv are not supported") {
			t.Errorf("%s: %v, want the Runner-only rejection", name, err)
		}
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("a rejected flag set wrote a snapshot: %v", err)
	}
}

// TestRunSessionPlacements: the durable path places balls as -placement
// says — all-in-one puts every ball in bin 0, random spreads them — as
// the trace archive's first seek point, taken before any run, records.
func TestRunSessionPlacements(t *testing.T) {
	const n, m = 8, 64
	for _, c := range []struct {
		placement string
		allInBin0 bool
	}{{"all-in-one", true}, {"random", false}} {
		t.Run(c.placement, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "run.trace")
			if err := runSession(sessionFlags{traceout: out}, n, m, 3, c.placement, "time=0.5", "complete", "", "direct", 0, false, 0, false); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, err := rls.OpenTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			for {
				item, err := tr.Next()
				if err != nil {
					t.Fatalf("no seek point in the archive: %v", err)
				}
				if item.Snapshot == nil {
					continue
				}
				s, err := rls.ResumeSession(bytes.NewReader(item.Snapshot))
				if err != nil {
					t.Fatal(err)
				}
				if loads := s.Loads(); (loads[0] == m) != c.allInBin0 || s.M() != m {
					t.Fatalf("initial loads %v", loads)
				}
				return
			}
		})
	}
}
