package opensys

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	ok := Params{N: 8, Lambda: 0.5, Mu: 1, Beta: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{N: 1, Lambda: 0.5, Mu: 1},           // too few servers
		{N: 8, Lambda: 0, Mu: 1},             // zero arrivals
		{N: 8, Lambda: 0.5, Mu: 0},           // zero service
		{N: 8, Lambda: 0.5, Mu: 1, Beta: -1}, // negative migration
		{N: 8, Lambda: 1.2, Mu: 1},           // unstable
		{N: 8, Lambda: 1, Mu: 1},             // critically loaded
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestSystemConservation(t *testing.T) {
	r := rng.New(1)
	s, err := New(Params{N: 16, Lambda: 0.7, Mu: 1, Beta: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		s.Step()
		// Jobs must equal arrivals − departures and the load sum.
		if int64(s.Jobs()) != s.Arrivals-s.Departures {
			t.Fatalf("job accounting broken at step %d", i)
		}
	}
	sum := 0
	minL, maxL := math.MaxInt, 0
	for _, l := range s.Loads() {
		sum += l
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if sum != s.Jobs() {
		t.Fatalf("loads sum %d != jobs %d", sum, s.Jobs())
	}
	if minL != int(math.Min(float64(minL), float64(s.min))) || s.min != minL || s.max != maxL {
		t.Fatalf("min/max tracking: cached (%d,%d) vs true (%d,%d)", s.min, s.max, minL, maxL)
	}
}

func TestSystemTimeAdvances(t *testing.T) {
	r := rng.New(2)
	s, _ := New(Params{N: 8, Lambda: 0.5, Mu: 1, Beta: 0}, r)
	for i := 0; i < 1000; i++ {
		before := s.time
		s.Step()
		if s.time <= before {
			t.Fatal("time did not advance")
		}
	}
}

func TestBetaZeroMatchesMM1MeanJobs(t *testing.T) {
	// Without migration the system is n independent M/M/1 queues:
	// time-averaged jobs per server ≈ ρ/(1−ρ).
	r := rng.New(3)
	rho := 0.6
	p := Params{N: 32, Lambda: rho, Mu: 1, Beta: 0}
	s, _ := New(p, r)
	st := s.Run(2000, 30000)
	perServer := st.MeanJobs / float64(p.N)
	want := MM1MeanJobs(rho)
	if math.Abs(perServer-want) > 0.12*want {
		t.Fatalf("mean jobs/server = %g, want ~%g", perServer, want)
	}
}

func TestMigrationDoesNotIncreaseMeanJobs(t *testing.T) {
	// Migration moves jobs between servers but does not create or
	// destroy them, and service capacity is only ever *better* utilized
	// (fewer idle servers while work queues elsewhere — approaching the
	// pooled M/M/n system), so mean jobs with β=1 must not exceed the
	// β=0 value by more than noise.
	r0 := rng.New(4)
	r1 := rng.New(5)
	rho := 0.7
	s0, _ := New(Params{N: 32, Lambda: rho, Mu: 1, Beta: 0}, r0)
	s1, _ := New(Params{N: 32, Lambda: rho, Mu: 1, Beta: 1}, r1)
	st0 := s0.Run(2000, 20000)
	st1 := s1.Run(2000, 20000)
	if st1.MeanJobs > st0.MeanJobs*1.1 {
		t.Fatalf("migration increased mean jobs: %g vs %g", st1.MeanJobs, st0.MeanJobs)
	}
}

func TestMigrationReducesMaxQueueAndDisc(t *testing.T) {
	// The headline open-system effect: RLS migration collapses the
	// log_{1/ρ}(n) max-queue profile toward the mean.
	rho := 0.8
	n := 64
	s0, _ := New(Params{N: n, Lambda: rho, Mu: 1, Beta: 0}, rng.New(6))
	s1, _ := New(Params{N: n, Lambda: rho, Mu: 1, Beta: 1}, rng.New(7))
	st0 := s0.Run(3000, 20000)
	st1 := s1.Run(3000, 20000)
	if st1.MeanMax >= st0.MeanMax {
		t.Fatalf("migration did not reduce mean max queue: %g vs %g", st1.MeanMax, st0.MeanMax)
	}
	if st1.MeanDisc >= st0.MeanDisc {
		t.Fatalf("migration did not reduce mean disc: %g vs %g", st1.MeanDisc, st0.MeanDisc)
	}
	// And the no-migration max should be in the right ballpark of the
	// extreme-value scale (within a factor ~3 either way).
	scale := MM1MaxQueueScale(n, rho)
	if st0.MeanMax < scale/3 || st0.MeanMax > 3*scale+5 {
		t.Fatalf("β=0 mean max %g far from the log_{1/ρ} n scale %g", st0.MeanMax, scale)
	}
}

func TestStatsWindowAccounting(t *testing.T) {
	r := rng.New(8)
	s, _ := New(Params{N: 8, Lambda: 0.5, Mu: 1, Beta: 1}, r)
	st := s.Run(100, 500)
	if st.Window < 500 {
		t.Fatalf("window = %g, want >= 500", st.Window)
	}
	if st.FracPerfect < 0 || st.FracPerfect > 1 {
		t.Fatalf("FracPerfect = %g outside [0,1]", st.FracPerfect)
	}
	if st.MeanJobs <= 0 {
		t.Fatal("mean jobs should be positive under load")
	}
}

func TestMM1Formulas(t *testing.T) {
	if math.Abs(MM1MeanJobs(0.5)-1) > 1e-12 {
		t.Error("MM1MeanJobs(0.5) != 1")
	}
	// log_{2}(64) = 6 at rho = 0.5.
	if math.Abs(MM1MaxQueueScale(64, 0.5)-6) > 1e-12 {
		t.Error("MM1MaxQueueScale wrong")
	}
}

func TestHighMigrationRateKeepsPerfectBalanceMostOfTheTime(t *testing.T) {
	// With a fast migration clock relative to arrivals, the system stays
	// perfectly balanced for a substantial fraction of time.
	s, _ := New(Params{N: 16, Lambda: 0.5, Mu: 1, Beta: 20}, rng.New(9))
	st := s.Run(500, 5000)
	if st.FracPerfect < 0.5 {
		t.Fatalf("fast migration kept perfect balance only %.0f%% of the time", 100*st.FracPerfect)
	}
}
