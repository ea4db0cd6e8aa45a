package rls_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	rls "repro"
	"repro/internal/service"
)

// The 30-second quickstart: build a Runner for n bins and m balls,
// run RLS to perfect balance, read the result. Every knob has a default —
// all-in-one placement (the paper's worst case), the UntilPerfect target,
// the direct engine, seed 1.
func Example_quickstart() {
	res, err := rls.New(16, 128, rls.WithSeed(1)).Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("perfectly balanced: %v (discrepancy %.2f)\n", res.Reached, res.Disc)
	fmt.Printf("continuous time:    %.1f (Theorem 1 predicts Θ(ln n + n²/m) = Θ(%.1f))\n",
		res.Time, rls.ExpectedBalanceTime(16, 128))
	fmt.Printf("protocol moves:     %d\n", res.Moves)
	// Output:
	// perfectly balanced: true (discrepancy 0.00)
	// continuous time:    3.1 (Theorem 1 predicts Θ(ln n + n²/m) = Θ(4.8))
	// protocol moves:     199
}

// Engine modes change how a run is simulated, never what it computes: the
// jump engine simulates only the embedded chain of productive moves, so
// the sparse end-game — where the direct engine burns almost every
// activation on rejected null moves — costs O(moves·log Δ) instead of
// O(activations). Both runs below balance n = m = 512 from the
// all-in-one start. The trajectories differ (the jump engine draws
// different random numbers) but follow the same law; the difference is
// that the direct engine simulates its hundreds of thousands of
// activations one by one, while the jump engine tallies all the null ones
// in geometric blocks and only ever executes its ~5300 moves.
func ExampleWithEngineMode() {
	direct, err := rls.New(512, 512, rls.WithSeed(7)).Run()
	if err != nil {
		panic(err)
	}
	jump, err := rls.New(512, 512, rls.WithSeed(7), rls.WithEngineMode(rls.JumpEngine)).Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("direct: balanced=%v after %d activations, %d moves\n",
		direct.Reached, direct.Activations, direct.Moves)
	fmt.Printf("jump:   balanced=%v after %d activations, %d moves\n",
		jump.Reached, jump.Activations, jump.Moves)
	// Output:
	// direct: balanced=true after 129727 activations, 4653 moves
	// jump:   balanced=true after 305770 activations, 5284 moves
}

// A Session is the long-running form: balls join and leave (churn) between
// stretches of protocol time, absorbed in place by one persistent engine —
// no rebuild per event. Here a burst of joins lands in bin 0, the protocol
// re-balances, and a few leaves later the discrepancy is still under
// control.
func ExampleSession() {
	s := rls.NewSession(8, 42)
	for i := 0; i < 64; i++ {
		s.AddBallRandom()
	}
	ok, err := s.RunUntilPerfect(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after 64 joins:  balanced=%v (m=%d, disc %.2f)\n", ok, s.M(), s.Disc())

	for i := 0; i < 8; i++ {
		if err := s.AddBall(0); err != nil { // a hot spot: every join hits bin 0
			panic(err)
		}
	}
	fmt.Printf("after a hot burst: m=%d, disc %.2f\n", s.M(), s.Disc())
	ok, err = s.RunUntilPerfect(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("re-balanced:     balanced=%v (m=%d, disc %.2f)\n", ok, s.M(), s.Disc())
	// Output:
	// after 64 joins:  balanced=true (m=64, disc 0.00)
	// after a hot burst: m=72, disc 7.00
	// re-balanced:     balanced=true (m=72, disc 0.00)
}

// Targets other than perfect balance: UntilTime stops at a continuous-time
// horizon — and in the jump modes the final geometric block is clamped so
// the reported time is exactly the horizon, never past it.
func ExampleWithTarget() {
	res, err := rls.New(64, 640,
		rls.WithSeed(3),
		rls.WithEngineMode(rls.JumpEngine),
		rls.WithTarget(rls.UntilTime(2)),
	).Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("stopped at exactly t=%v: %v\n", res.Time, res.Reached)
	fmt.Printf("discrepancy after 2 time units: %.2f\n", res.Disc)
	// Output:
	// stopped at exactly t=2: true
	// discrepancy after 2 time units: 87.00
}

// The service form: cmd/rlsd hosts many concurrent Sessions as tenants
// behind an HTTP/JSON control plane with an SSE telemetry plane —
// internal/service is the embeddable core the daemon wraps. A client
// creates a session (the JSON config decodes into an rls.Spec),
// streams churn batches in, and watches convergence frames stream out.
// Subscribing before posting guarantees the batch's frame follows the
// initial snapshot, which is what makes this example deterministic.
func Example_serviceClient() {
	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	}()

	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"bins": 8, "balls": 64, "seed": 42, "engine": "jump"}`))
	if err != nil {
		panic(err)
	}
	var created struct {
		ID    string `json:"id"`
		Balls int    `json:"balls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Printf("created %s: %d balls in 8 bins\n", created.ID, created.Balls)

	stream, err := http.Get(srv.URL + "/v1/sessions/" + created.ID + "/stream")
	if err != nil {
		panic(err)
	}
	defer stream.Body.Close()
	frames := bufio.NewScanner(stream.Body)
	next := func() (t struct {
		Balls   int     `json:"balls"`
		Disc    float64 `json:"disc"`
		Phase   string  `json:"phase"`
		Applied int64   `json:"applied"`
	}) {
		for frames.Scan() {
			if data, ok := strings.CutPrefix(frames.Text(), "data: "); ok {
				if err := json.Unmarshal([]byte(data), &t); err != nil {
					panic(err)
				}
				return
			}
		}
		panic("stream ended early")
	}
	snap := next()
	fmt.Printf("snapshot: %d balls\n", snap.Balls)

	// A hot burst on bin 0, then re-balance to perfection — the service
	// applies the batch in order and publishes one telemetry frame for it.
	resp, err = http.Post(srv.URL+"/v1/sessions/"+created.ID+"/events", "application/json",
		strings.NewReader(`{"events": [
			{"op": "add", "bin": 0}, {"op": "add", "bin": 0}, {"op": "add", "bin": 0},
			{"op": "add", "bin": 0}, {"op": "add", "bin": 0}, {"op": "add", "bin": 0},
			{"op": "add", "bin": 0}, {"op": "add", "bin": 0},
			{"op": "run_to_perfect"}]}`))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()

	tel := next()
	fmt.Printf("after churn: %d balls, disc %.2f, phase %s (%d events applied)\n",
		tel.Balls, tel.Disc, tel.Phase, tel.Applied)
	// Output:
	// created s-1: 64 balls in 8 bins
	// snapshot: 64 balls
	// after churn: 72 balls, disc 0.00, phase perfect (9 events applied)
}
