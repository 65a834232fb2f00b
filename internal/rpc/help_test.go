package rpc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ijvm/internal/heap"
	"ijvm/internal/rpc"
)

// This file pins the waiter's half of dispatch (README.md, "The call
// path"): a goroutine that waits on a future runs queued calls itself while
// the engine is free, under the same slice-boundary rules as a worker, and
// wakes a worker before it sleeps when it could not — so a request a
// blocking Call enqueued without a signal is never stranded.

// TestWaitersHelpStorm: eight goroutines mix blocking Calls and pipelined
// CallAsync+Wait on two links while another kills the second link's callee
// inside Sync, collects and closes the first link. Every call is shorter
// than a dispatch slice even when sixteen share a batch, so an admin action
// lands between batches and a call is either refused before it is armed or
// runs to its exact result. Each future resolves once (a second resolution
// would give its slot back twice and the drained word would not end at the
// closing flag alone), every armed call came from a parked shell or a fresh
// spawn, and nothing is left running.
func TestWaitersHelpStorm(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spinA := e.extraMethod(t, "spin", "(I)I")
	calleeB, spinB := newExtraIsolate(t, e.vm, "storm-b", "spin", "(I)I")
	opts := rpc.LinkOptions{QueueDepth: 8}
	linkA, err := hub.NewLink(e.caller, e.callee, spinA, heap.Value{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	linkB, err := hub.NewLink(e.caller, calleeB, spinB, heap.Value{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	links := [2]*rpc.Link{linkA, linkB}
	const callers, rounds, pipeline = 8, 400, 3
	var (
		exact, refused, ops atomic.Int64
		wg                  sync.WaitGroup
	)
	// settle accounts for one finished call: its exact result or a sentinel.
	settle := func(v heap.Value, err error, n int64) {
		ops.Add(1)
		switch {
		case err == nil && v.I == n:
			exact.Add(1)
		case errors.Is(err, rpc.ErrLinkClosed), errors.Is(err, rpc.ErrCalleeStopped), errors.Is(err, rpc.ErrSaturated):
			refused.Add(1)
		default:
			t.Errorf("spin(%d) = %d, %v", n, v.I, err)
		}
	}
	rpc.WithinForTest(t, "the waiters' storm", func() {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				arg := func() int64 { return int64(rng.Intn(500)) }
				for i := 0; i < rounds; i++ {
					link := links[(i+g)%2]
					if (i/2+g)%2 == 0 {
						n := arg()
						v, err := link.Call([]heap.Value{heap.IntVal(n)})
						settle(v, err, n)
						continue
					}
					var (
						futs [pipeline]*rpc.Future
						want [pipeline]int64
					)
					for k := range futs {
						want[k] = arg()
						f, err := link.CallAsync([]heap.Value{heap.IntVal(want[k])})
						if err != nil {
							settle(heap.Value{}, err, want[k])
							continue
						}
						futs[k] = f
					}
					for k, f := range futs {
						if f == nil {
							continue
						}
						v, err := f.Wait()
						settle(v, err, want[k])
						f.Release()
						if v2, err2, ok := f.TryResult(); !ok || v2 != v || err2 != err {
							t.Errorf("a resolved future changed its outcome: %v/%v, then %v/%v (resolved %v)", v, err, v2, err2, ok)
						}
					}
				}
			}(g)
		}
		admin := make(chan struct{})
		go func() {
			defer close(admin)
			after := func(n int64) {
				for ops.Load() < n {
					time.Sleep(50 * time.Microsecond)
				}
			}
			after(500)
			hub.Collect(nil)
			after(1500)
			hub.Sync(func() {
				if err := e.vm.KillIsolate(nil, calleeB); err != nil {
					t.Error(err)
				}
			})
			hub.Collect(nil)
			after(4000)
			linkA.Close()
		}()
		wg.Wait()
		<-admin
		linkA.Close()
		linkB.Close()
	})
	for i, l := range links {
		if n, closing := l.SlotWordForTest(); n != 0 || !closing {
			t.Errorf("link %d: the slot word ended at closing=%v|%d, want the flag alone", i, closing, n)
		}
	}
	st := hub.Stats()
	if got := st.ShellReuses + st.FreshSpawns; got != exact.Load() {
		t.Errorf("%d dispatch threads armed for %d exact results (%d refused): %+v", got, exact.Load(), refused.Load(), st)
	}
	if exact.Load() == 0 || refused.Load() == 0 || st.Helped == 0 {
		t.Errorf("the storm did not cover its paths: %d exact, %d refused, %d helped batches of %d", exact.Load(), refused.Load(), st.Helped, st.Batches)
	}
	if n := e.vm.LiveThreads(); n != 0 {
		t.Fatalf("%d threads live after the storm", n)
	}
	t.Logf("%d calls: %d exact, %d refused; %d batches, %d of them helped", ops.Load(), exact.Load(), refused.Load(), st.Batches, st.Helped)
}

// TestHelpedCallYieldsAtSlices: a call longer than a dispatch slice behaves
// the same whether its waiting caller runs it or a worker does. Sync lands
// while it is still running (the dispatcher gives the engine up at slice
// boundaries), running out of its CallBudget resolves it with
// ErrCallBudget, and a Close cancels it with ErrLinkClosed.
func TestHelpedCallYieldsAtSlices(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	cases := []struct {
		name   string
		budget int64
		end    func(*rpc.Link) // ends the call while it runs; nil waits for the budget
		want   error
	}{
		{"budget", 256 * rpc.DispatchSliceForTest, nil, rpc.ErrCallBudget},
		{"close", 1 << 40, (*rpc.Link).Close, rpc.ErrLinkClosed},
	}
	for _, helped := range []bool{true, false} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/helped=%v", c.name, helped)
			link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{CallBudget: c.budget})
			if err != nil {
				t.Fatal(err)
			}
			link.AwaitParkedWorkersForTest(rpc.DefaultWorkers)
			before := hub.Stats()
			args := []heap.Value{heap.IntVal(1 << 30)}
			var outcome func() error
			if helped {
				// A blocking Call: its goroutine finds the engine free and
				// runs the call.
				done := make(chan error, 1)
				go func() { _, err := link.Call(args); done <- err }()
				outcome = func() error { return <-done }
			} else {
				// CallAsync wakes a worker, and polling is not waiting: the
				// worker runs the call.
				f, err := link.CallAsync(args)
				if err != nil {
					t.Fatal(err)
				}
				outcome = func() error {
					for {
						if _, err, ok := f.TryResult(); ok {
							f.Release()
							return err
						}
						time.Sleep(100 * time.Microsecond)
					}
				}
			}
			var got error
			rpc.WithinForTest(t, name, func() {
				for e.vm.LiveThreads() == 0 {
					runtime.Gosched()
				}
				for i := 0; i < 3; i++ {
					hub.Sync(func() {
						if n := e.vm.LiveThreads(); n != 1 {
							t.Errorf("%s: Sync %d landed with %d threads live, want the call still running", name, i, n)
						}
					})
				}
				if c.end != nil {
					c.end(link)
				}
				got = outcome()
			})
			if !errors.Is(got, c.want) {
				t.Errorf("%s: the call resolved with %v, want %v", name, got, c.want)
			}
			after := hub.Stats()
			wantHelped := int64(0)
			if helped {
				wantHelped = 1
			}
			if b, h := after.Batches-before.Batches, after.Helped-before.Helped; b != 1 || h != wantHelped {
				t.Errorf("%s: %d batches, %d helped, want 1 and %d", name, b, h, wantHelped)
			}
			if n := e.vm.LiveThreads(); n != 0 {
				t.Errorf("%s: %d threads live after the call resolved", name, n)
			}
			link.Close()
		}
	}
}

// TestCallUnderBusyEngineWakesWorker: a blocking Call enqueues without
// waking a worker. When it finds the engine held — here by Sync — it cannot
// run the call itself, so before it sleeps it wakes a parked worker, which
// claims the request and runs it once Sync returns. Without that wake-up
// the request would sit in the queue with every worker parked, forever.
func TestCallUnderBusyEngineWakesWorker(t *testing.T) {
	e, hub := newAsyncEnv(t)
	// On failure the request is stranded and a link Close would wait for it
	// forever; the hub's Close fails it instead.
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	link.AwaitParkedWorkersForTest(rpc.DefaultWorkers)
	before := hub.Stats()
	done := make(chan error, 1)
	claimed := false
	hub.Sync(func() {
		go func() {
			v, err := link.Call([]heap.Value{heap.IntVal(7)})
			if err == nil && v.I != 7 {
				err = fmt.Errorf("spin(7) = %d", v.I)
			}
			done <- err
		}()
		// Only a woken worker can empty the queue while Sync holds the
		// engine: the waiter's TryLock fails.
		for deadline := time.Now().Add(10 * time.Second); !claimed && time.Now().Before(deadline); {
			queued, deepest := link.QueueForTest()
			claimed = deepest > 0 && queued == 0
			runtime.Gosched()
		}
	})
	if !claimed {
		t.Fatal("the waiter went to sleep with its request queued and every worker parked")
	}
	rpc.WithinForTest(t, "a Call made while Sync held the engine", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	link.Close()
	after := hub.Stats()
	if b, h := after.Batches-before.Batches, after.Helped-before.Helped; b != 1 || h != 0 {
		t.Errorf("%d batches, %d helped, want one worker batch", b, h)
	}
}
