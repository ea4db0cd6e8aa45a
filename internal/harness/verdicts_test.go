package harness

// Verdict tests: quick-scale experiments must reproduce the *shape* of
// each paper claim, with windows generous enough for quick-scale noise.
// If a code change breaks the science (not just the plumbing), these
// fail. All are skipped under -short.

import (
	"strings"
	"testing"
)

func TestT1RatioBandQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("T1")
	tb := e.Run(RunConfig{Seed: 21, Scale: Quick})
	col := colIndex(t, tb, "ratio")
	for _, row := range tb.Rows {
		ratio := parseF(t, row[col])
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("T1 ratio %g outside the Θ band (row %v)", ratio, row)
		}
	}
}

func TestP3RatioNearLemma17Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("P3")
	tb := e.Run(RunConfig{Seed: 22, Scale: Quick})
	col := colIndex(t, tb, "ratio")
	for _, row := range tb.Rows {
		ratio := parseF(t, row[col])
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("P3 ratio %g far from the Lemma 17 sum (row %v)", ratio, row)
		}
	}
}

func TestL16RateAboveBoundQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("L16")
	tb := e.Run(RunConfig{Seed: 23, Scale: Quick})
	col := colIndex(t, tb, "rate/bound")
	for _, row := range tb.Rows {
		if parseF(t, row[col]) < 1 {
			t.Errorf("L16 drift below the ∅/3 bound: %v", row)
		}
	}
}

func TestX3TopologyOrderingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("X3")
	tb := e.Run(RunConfig{Seed: 24, Scale: Quick})
	col := colIndex(t, tb, "E[T]")
	byName := map[string]float64{}
	for _, row := range tb.Rows {
		byName[row[0]] = parseF(t, row[col])
	}
	// The robust part of the claim at quick scale: the ring (τ_mix ~ n²)
	// is far slower than every expander-like topology. The full ordering
	// complete < hypercube < torus < ring emerges at full scale
	// (rlsweep -exp X3 -scale full); at n=64 the hypercube's focused
	// neighborhoods can edge out the complete graph within noise.
	for name, v := range byName {
		if name != "ring" && byName["ring"] < 5*v {
			t.Errorf("ring (%g) not ≫ %s (%g)", byName["ring"], name, v)
		}
	}
	if byName["torus"] < byName["complete"] {
		t.Errorf("torus (%g) faster than complete (%g)", byName["torus"], byName["complete"])
	}
}

func TestCMP2ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("CMP2")
	tb := e.Run(RunConfig{Seed: 25, Scale: Quick})
	rlsCol := colIndex(t, tb, "RLS E[T] (perfect)")
	edmCol := colIndex(t, tb, "EDM rounds (perfect)")
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if parseF(t, last[rlsCol]) >= parseF(t, first[rlsCol]) {
		t.Errorf("RLS time did not fall with m: %v -> %v", first[rlsCol], last[rlsCol])
	}
	if parseF(t, last[edmCol]) < parseF(t, first[edmCol]) {
		t.Errorf("EDM rounds fell with m: %v -> %v", first[edmCol], last[edmCol])
	}
}

func TestO1MigrationCollapsesMaxQueueQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("O1")
	tb := e.Run(RunConfig{Seed: 26, Scale: Quick})
	maxCol := colIndex(t, tb, "mean max queue")
	// Rows alternate β=0, β=1 per ρ.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		off := parseF(t, tb.Rows[i][maxCol])
		on := parseF(t, tb.Rows[i+1][maxCol])
		if on >= off {
			t.Errorf("migration did not reduce max queue at rows %d/%d: %g vs %g", i, i+1, off, on)
		}
	}
}

func TestCMP3ThresholdNeverPerfectQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e, _ := Get("CMP3")
	tb := e.Run(RunConfig{Seed: 28, Scale: Quick})
	col := colIndex(t, tb, "thr final disc")
	for _, row := range tb.Rows {
		if parseF(t, row[col]) < 1 {
			t.Errorf("threshold protocol reached perfection, contradicting the freeze: %v", row)
		}
	}
}

func TestExperimentTitlesMentionPaperArtifacts(t *testing.T) {
	for _, e := range All() {
		ref := strings.ToLower(e.PaperRef)
		if !strings.Contains(ref, "lemma") && !strings.Contains(ref, "theorem") &&
			!strings.Contains(ref, "figure") && !strings.Contains(ref, "§") {
			t.Errorf("experiment %s has unanchored PaperRef %q", e.ID, e.PaperRef)
		}
	}
}
