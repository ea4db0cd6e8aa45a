package service

import (
	"sync"
	"sync/atomic"
)

// subscriberBuffer is each SSE subscriber's frame buffer. Publishing
// never blocks the tenant's applier goroutine: a subscriber whose buffer
// is full loses the frame (counted in rlsd_stream_dropped_total) and
// keeps receiving from the next one — telemetry is a sampled view, not a
// durable log, so freshness beats completeness.
const subscriberBuffer = 16

// broker fans one tenant's telemetry frames out to its SSE subscribers.
// Frames are pre-encoded JSON; the broker neither inspects nor re-encodes
// them.
type broker struct {
	dropped *atomic.Int64
	mu      sync.Mutex
	subs    map[chan []byte]struct{}
	closed  bool
}

func newBroker(dropped *atomic.Int64) *broker {
	return &broker{dropped: dropped, subs: make(map[chan []byte]struct{})}
}

// subscribe registers a new subscriber and returns its frame channel plus
// a cancel function (safe to call after close). Subscribing to a closed
// broker — the tenant was deleted — returns an already-closed channel, so
// the handler unblocks immediately.
func (b *broker) subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, subscriberBuffer)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	return ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
	}
}

// publish delivers one frame to every subscriber, dropping (and counting)
// on full buffers instead of blocking the applier. The frame is built by
// calling frame, and only when someone subscribes: a tenant nobody
// watches pays nothing for telemetry. frame runs under the broker's lock,
// so it must not call back into the broker.
func (b *broker) publish(frame func() []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	f := frame()
	for ch := range b.subs {
		select {
		case ch <- f:
		default:
			b.dropped.Add(1)
		}
	}
}

// close ends every subscription: subscriber channels are closed, so their
// stream handlers return, and future subscribes get closed channels.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
}
