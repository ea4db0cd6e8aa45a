package service

import (
	"math"
	"testing"
)

// TestPhaseOfBoundaries pins the telemetry phase on both sides of each
// §6 boundary: disc < 1 is perfect, disc = 1 one-balanced, and the Phase 1
// boundary 96·ln n is log-balanced up to and including itself.
func TestPhaseOfBoundaries(t *testing.T) {
	const bins = 1024
	logTarget := 96 * math.Log(bins)
	for _, c := range []struct {
		balls int
		disc  float64
		want  string
	}{
		{0, 5, "empty"},
		{64, 0, "perfect"},
		{64, math.Nextafter(1, 0), "perfect"},
		{64, 1, "one-balanced"},
		{64, math.Nextafter(1, 2), "log-balanced"},
		{64, math.Nextafter(logTarget, 0), "log-balanced"},
		{64, logTarget, "log-balanced"},
		{64, math.Nextafter(logTarget, math.Inf(1)), "unbalanced"},
	} {
		if got := phaseOf(c.balls, bins, c.disc); got != c.want {
			t.Errorf("phaseOf(%d balls, %d bins, disc %v) = %q, want %q", c.balls, bins, c.disc, got, c.want)
		}
	}
}
