package rpc

import (
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// DispatchSliceForTest is the instruction budget of one dispatch slice.
const DispatchSliceForTest = dispatchSlice

// SlotWordForTest splits a link's admission word into the number of calls
// holding a slot and the closing flag.
func (l *Link) SlotWordForTest() (inflight int64, closing bool) {
	s := l.state.Load()
	return s &^ linkClosing, s&linkClosing != 0
}

// AwaitParkedWorkersForTest waits until n workers of the link's pool are
// parked on an empty queue. Nothing wakes them then but a CallAsync, or a
// waiter that could not run its call itself.
func (l *Link) AwaitParkedWorkersForTest(n int) {
	p := l.pool
	for {
		p.mu.Lock()
		parked := p.idle == n && len(p.queue) == 0
		p.mu.Unlock()
		if parked {
			return
		}
		runtime.Gosched()
	}
}

// QueueForTest returns how many requests the link's pool has queued now
// and the deepest its queue has been.
func (l *Link) QueueForTest() (queued, deepest int) {
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.maxQueue
}

// WithinForTest runs fn and fails the test, with every goroutine's stack,
// when it has not returned after a minute: a broken wake-up protocol hangs
// rather than fails.
func WithinForTest(t testing.TB, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		t.Fatalf("%s: still blocked after 60s (a lost wake-up)", what)
	}
}
