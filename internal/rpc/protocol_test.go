package rpc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ijvm/internal/heap"
)

// The two lock-free protocols of the call path (README.md, "The call
// path"), driven without a hub so that both sides of each race start within
// nanoseconds of each other. A broken protocol loses a wake-up: these tests
// then hang, and WithinForTest says so after a minute.

// TestFutureManyWaiters: eight goroutines Wait, poll and Release one future
// while a ninth resolves it, all let go at once, ten thousand times with the
// resolver at every place in the line. Resolution takes the future's lock
// only when a waiter has announced that it sleeps, and a waiter re-checks
// the resolution after announcing: without the first half a sleeper is never
// woken, without the second a waiter that announced just after the resolver
// looked sleeps on a channel nobody will close — either strands this test.
func TestFutureManyWaiters(t *testing.T) {
	const waiters, rounds = 8, 10_000
	var bad atomic.Int64
	check := func(v heap.Value, err error, want int64) {
		if err != nil || v.I != want {
			bad.Add(1)
		}
	}
	WithinForTest(t, "waiters on a resolving future", func() {
		for r := 0; r < rounds; r++ {
			f, want := &Future{}, int64(r)
			gate := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(waiters + 1)
			for g := 0; g <= waiters; g++ {
				if g == r%(waiters+1) {
					go func() {
						defer wg.Done()
						<-gate
						f.resolve(heap.IntVal(want), nil)
					}()
					continue
				}
				go func(g int) {
					defer wg.Done()
					<-gate
					switch g % 3 {
					case 0: // sleeps unless already resolved
						v, err := f.Wait()
						check(v, err, want)
					case 1: // polls, then reads through Wait
						for {
							if v, err, ok := f.TryResult(); ok {
								check(v, err, want)
								break
							}
							runtime.Gosched()
						}
						v, err := f.Wait()
						check(v, err, want)
					case 2: // Release waits too
						f.Release()
						v, err, ok := f.TryResult()
						if !ok {
							bad.Add(1)
						}
						check(v, err, want)
					}
					f.Release()
				}(g)
			}
			close(gate)
			wg.Wait()
		}
	})
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d reads of a resolved future returned the wrong outcome", n)
	}
}

// TestSlotHandoffNeverStrands: a link with one slot, taken; one goroutine
// blocks for it while another gives it back, in lock step, the blocker's
// arrival swept across the release in steps of a few nanoseconds. The
// blocker announces itself and then re-reads the admission word; the
// releaser changes the word and then re-reads the waiter count. A releaser
// that read the count before its decrement loses the wake-up of a blocker
// that announced in between, and nobody else will ever release: the round
// never ends. (The window is two adjacent instructions wide: on a 2-CPU host
// that mutation stranded 11 runs of 22 at 400 000 rounds and 12 of 12 at two
// million, at delays all over the sweep; TestAdmissionRacesClose, with a real
// hub behind the link, catches it about one run in four. The race detector
// has nothing to add here and slows the rounds tenfold, so CI's race smoke
// leaves this test to the ordinary runs.)
func TestSlotHandoffNeverStrands(t *testing.T) {
	rounds := int64(1_000_000)
	if testing.Short() {
		rounds = 100_000
	}
	l := &Link{opts: LinkOptions{QueueDepth: 1}}
	l.cond = sync.NewCond(&l.mu)
	l.state.Store(1)
	// phase is 2r+1 once round r's blocker is on its way in, 2r+2 when it
	// has the slot; the releaser follows it and stops when the blocker does.
	var phase atomic.Int64
	stopped := make(chan struct{})
	await := func(p int64) bool {
		for phase.Load() < p {
			select {
			case <-stopped:
				return false
			default:
				runtime.Gosched()
			}
		}
		return true
	}
	go func() {
		for r := int64(0); r < rounds && await(2*r+1); r++ {
			l.releaseSlot()
			await(2*r + 2)
		}
	}()
	WithinForTest(t, "a Call waiting for a slot", func() {
		defer close(stopped)
		for r := int64(0); r < rounds; r++ {
			phase.Store(2*r + 1)
			for d := int64(0); d < (r%64)*4; d++ {
				l.waiters.Load()
			}
			if err := l.acquireSlot(true); err != nil {
				t.Error(err)
				return
			}
			phase.Store(2*r + 2)
		}
	})
	if n, closing := l.SlotWordForTest(); n != 1 || closing {
		t.Fatalf("the slot word ended at closing=%v|%d, want the one slot held", closing, n)
	}
}
