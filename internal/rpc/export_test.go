package rpc

import (
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// SlotWordForTest splits a link's admission word into the number of calls
// holding a slot and the closing flag.
func (l *Link) SlotWordForTest() (inflight int64, closing bool) {
	s := l.state.Load()
	return s &^ linkClosing, s&linkClosing != 0
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
