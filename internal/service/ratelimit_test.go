package service

import (
	"testing"
	"time"
)

// TestBucketDeterministic drives the token bucket on an injected clock:
// spend-to-empty, rejection with an honest retry hint, refill at rate,
// and the burst cap.
func TestBucketDeterministic(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBucketAt(10, 20, clock) // 10 tokens/sec, capacity 20

	if ok, _ := b.Take(20); !ok {
		t.Fatal("full bucket must admit its whole burst")
	}
	ok, retry := b.Take(5)
	if ok {
		t.Fatal("empty bucket must reject")
	}
	if want := 500 * time.Millisecond; retry != want {
		t.Fatalf("retry hint %v, want %v (5 tokens at 10/sec)", retry, want)
	}

	now = now.Add(time.Second) // refills 10
	if ok, _ := b.Take(10); !ok {
		t.Fatal("1s at rate 10 must refill 10 tokens")
	}
	if ok, _ := b.Take(1); ok {
		t.Fatal("bucket must be empty again")
	}

	now = now.Add(time.Hour) // refill clamps at burst
	if ok, _ := b.Take(21); ok {
		t.Fatal("a take above burst can never succeed")
	}
	if ok, _ := b.Take(20); !ok {
		t.Fatal("burst cap worth of tokens must be available")
	}
}

// TestBucketUnlimited pins the -rate 0 escape hatch.
func TestBucketUnlimited(t *testing.T) {
	b := newBucketAt(0, 0, time.Now)
	for i := 0; i < 3; i++ {
		if ok, retry := b.Take(1e9); !ok || retry != 0 {
			t.Fatalf("disabled bucket rejected (retry %v)", retry)
		}
	}
}
