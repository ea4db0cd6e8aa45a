package rls_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	rls "repro"
	"repro/internal/persist"
	"repro/internal/spectest"
)

// runnerOptions spells a Spec as Runner options.
func runnerOptions(s rls.Spec) []rls.Option {
	opts := []rls.Option{
		rls.WithEngineMode(s.Mode), rls.WithTopology(s.Topology), rls.WithSpeeds(s.Speeds),
		rls.WithShards(s.Shards), rls.WithShardEpoch(s.ShardEpoch),
	}
	if s.Strict {
		opts = append(opts, rls.WithStrictTieRule())
	}
	return opts
}

// TestSpecValidateAgreesWithConstruction walks the spectest cross-product
// through the library's construction surfaces — Runner.Run,
// Runner.RunTraced, Spec.NewSession, and snapshot → ResumeSession — and
// requires each to build exactly the shapes Validate accepts and to
// reject the rest with Validate's message. Sessions answer the sharded
// engine and Speeds with ErrSessionSpec, and so does resume for a header
// naming the sharded engine. A snapshot header records neither speeds nor
// an epoch, and its decoder drops a shard count
// outside the sharded engine (earlier writers recorded one), so those
// cases skip the snapshot surface. rlsd and rlsim walk the same table in
// their own packages.
func TestSpecValidateAgreesWithConstruction(t *testing.T) {
	check := func(c spectest.Case, surface string, got error, want error) {
		t.Helper()
		if spectest.Want(got) != spectest.Want(want) {
			t.Errorf("%s: %s answered %v, want %v", c.Name, surface, got, want)
		}
	}
	for _, c := range spectest.Cases() {
		want := c.Spec.Validate(c.N)
		opts := append(runnerOptions(c.Spec), rls.WithSeed(spectest.Seed), rls.WithTarget(rls.UntilTime(0.2)))
		_, err := rls.New(c.N, c.N, opts...).Run()
		check(c, "Runner.Run", err, want)
		_, _, err = rls.New(c.N, c.N, opts...).RunTraced(5)
		check(c, "Runner.RunTraced", err, want)

		sessWant := c.SessionWant()
		s, err := c.Spec.NewSession(c.N, spectest.Seed)
		check(c, "Spec.NewSession", err, sessWant)
		if err == nil {
			for i := 0; i < c.N; i++ {
				s.AddBallRandom()
			}
			if err := s.RunFor(0.2); err != nil {
				t.Errorf("%s: built session cannot run: %v", c.Name, err)
			}
		}

		if c.Spec.Speeds != nil || c.Spec.ShardEpoch != 0 ||
			(c.Spec.Shards != 0 && c.Spec.Mode != rls.ShardedEngine) {
			continue
		}
		art := rls.ForgeSnapshot(c.N, c.Spec)
		if s != nil {
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			art = buf.Bytes()
		}
		r, err := rls.ResumeSession(bytes.NewReader(art))
		if sessWant == nil {
			check(c, "ResumeSession", err, nil)
			if err == nil && (r.Mode() != s.Mode() || r.Strict() != s.Strict() || r.TopologyName() != s.TopologyName()) {
				t.Errorf("%s: resumed shape %v/%t/%s", c.Name, r.Mode(), r.Strict(), r.TopologyName())
			}
			continue
		}
		if !errors.Is(err, persist.ErrCorrupt) || !strings.HasSuffix(err.Error(), ": "+sessWant.Error()) {
			t.Errorf("%s: ResumeSession answered %v, want ErrCorrupt wrapping %v", c.Name, err, sessWant)
		}
	}
}
