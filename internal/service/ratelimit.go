package service

import (
	"sync"
	"time"
)

// Bucket is a token-bucket rate limiter: Rate tokens refill per second up
// to a Burst capacity, and each admitted event spends one token. Every
// tenant owns one bucket, so a single hot tenant saturates its own quota
// — never the daemon's applier capacity or its neighbours' throughput.
//
// The bucket refills lazily on Take (no background goroutine): elapsed
// wall-clock since the previous call converts to tokens at Rate. A Take
// that cannot be satisfied rejects immediately — callers surface the
// returned retry hint as an HTTP Retry-After — rather than queueing, so
// backpressure stays visible to the client instead of hiding in the
// server.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for deterministic tests
}

// newBucketAt returns a full bucket refilling at rate tokens/sec with the
// given capacity, reading wall-clock time from now. A non-positive rate or
// burst disables limiting (every Take succeeds) — the daemon's -rate 0
// escape hatch.
func newBucketAt(rate, burst float64, now func() time.Time) *Bucket {
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// Take spends n tokens if available and reports success; on failure it
// returns how long the caller should wait before the deficit refills.
// Requests larger than the whole burst can never succeed — those are
// rejected with the time to refill from empty, and the caller should
// split the batch.
func (b *Bucket) Take(n float64) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 || b.burst <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	deficit := n - b.tokens
	if n > b.burst {
		deficit = b.burst // unfillable; hint one full refill
	}
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}
