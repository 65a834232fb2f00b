package rpc_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
)

// This file pins the link call path's fixed costs and the lock-free
// admission protocol on it (see "The call path" in README.md; both
// protocols are driven hub-less in protocol_test.go, the waiter's help in
// help_test.go): what a warm call allocates, that a
// link's admission word survives submitters and Close racing each other,
// that a parked shell holds no guest object, and that a hub holds pools for
// live callees only. The tests assert through Hub.Stats and the accounts,
// not through timing.

// newExtraIsolate creates a fresh (killable) isolate holding the Extra
// helper class and returns it with the named static helper.
func newExtraIsolate(t *testing.T, vm *interp.VM, name, method, desc string) (*core.Isolate, *classfile.Method) {
	t.Helper()
	loader := vm.Registry().NewLoader(name)
	iso, err := vm.World().NewIsolate(name, loader)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.DefineAll(extraClasses()); err != nil {
		t.Fatal(err)
	}
	class, err := loader.Lookup(extraClassName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := class.LookupMethod(method, desc)
	if err != nil {
		t.Fatal(err)
	}
	return iso, m
}

// TestLinkCallAllocations: a warm scalar call allocates the request that
// carries its future and nothing else — plus a channel when the caller has
// to sleep for the result, which a pipelining caller does about once per
// window. A blocking Call on an idle engine does not sleep: its caller
// runs the call itself, with the batch state on its own stack. (3.25 and
// 6.0 before the dispatch shells, the worker-owned batch state and the
// quantum accountant stopped allocating; 2.0 for a blocking Call while it
// always slept on a channel for a worker.)
func TestLinkCallAllocations(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	const window = 16
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{QueueDepth: window})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	args := []heap.Value{heap.IntVal(3)}
	var futs [window]*rpc.Future
	pipelined := func() {
		for i := range futs {
			f, err := link.CallAsync(args)
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		for _, f := range futs {
			if v, err := f.Wait(); err != nil || v.I != 3 {
				t.Fatalf("spin(3) = %d, %v", v.I, err)
			}
			f.Release()
		}
	}
	blocking := func() {
		if v, err := link.Call(args); err != nil || v.I != 3 {
			t.Fatalf("spin(3) = %d, %v", v.I, err)
		}
	}
	// Warm: method preparation, the pool's shells, the queue's capacity.
	for i := 0; i < 20; i++ {
		pipelined()
		blocking()
	}
	if n := testing.AllocsPerRun(200, pipelined) / window; n > 1.25 {
		t.Errorf("CallAsync+Wait+Release allocates %.2f times per call, want <= 1.25", n)
	}
	if n := testing.AllocsPerRun(2000, blocking); n > 1.25 {
		t.Errorf("Call allocates %.2f times, want <= 1.25", n)
	}
	if st := hub.Stats(); st.FreshSpawns > window || st.ShellReuses < st.Calls-window {
		t.Errorf("dispatch threads were not recycled: %+v", st)
	}
}

// TestAdmissionRacesClose: four submitters mix CallAsync and blocking Call
// on a two-slot link while Close runs. Admission is a CAS on the word Close
// drains, so every admitted call resolves (Close waits for it), nothing is
// admitted once the closing flag is up, the word ends at the flag alone,
// and the receiver's roots are dropped — exactly once — only then. A
// releaser that does not re-read the waiter count after giving its slot
// back strands a blocked Call or the draining Close here.
func TestAdmissionRacesClose(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	const submitters, rounds = 4, 300
	liveCallee := func() int64 {
		hub.Collect(nil)
		return e.callee.Live().Objects
	}
	base := liveCallee()
	var admitted, resolved atomic.Int64
	for r := 0; r < rounds; r++ {
		// A fresh receiver per round: only the link's roots keep it alive.
		var recv heap.Value
		hub.Sync(func() { recv = newReceiver(t, e) })
		link, err := hub.NewLink(e.caller, e.callee, e.method, recv, rpc.LinkOptions{QueueDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg      sync.WaitGroup
			started sync.WaitGroup
		)
		started.Add(submitters)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				args := []heap.Value{heap.IntVal(1)}
				for i := 0; ; i++ {
					if i == 10 {
						started.Done()
					}
					var err error
					if (i+g)%2 == 0 {
						var f *rpc.Future
						if f, err = link.CallAsync(args); err == nil {
							admitted.Add(1)
							_, err = f.Wait()
							f.Release()
							resolved.Add(1)
						}
					} else {
						// A blocking Call that fails with ErrLinkClosed was
						// either refused or admitted and cancelled; both are
						// fine, hanging is not.
						_, err = link.Call(args)
					}
					switch {
					case err == nil, errors.Is(err, rpc.ErrSaturated):
					case errors.Is(err, rpc.ErrLinkClosed):
						return
					default:
						t.Errorf("round %d: %v", r, err)
						return
					}
				}
			}(g)
		}
		rpc.WithinForTest(t, fmt.Sprintf("round %d: Close beside %d submitters", r, submitters), func() {
			started.Wait()
			link.Close()
			if n, closing := link.SlotWordForTest(); n != 0 || !closing {
				t.Errorf("round %d: Close returned with the slot word at closing=%v|%d", r, closing, n)
			}
			if _, err := link.CallAsync([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrLinkClosed) {
				t.Errorf("round %d: a call was admitted after Close returned: %v", r, err)
			}
			wg.Wait()
			link.Close() // idempotent: the roots are not dropped twice
		})
		if n, closing := link.SlotWordForTest(); n != 0 || !closing {
			t.Fatalf("round %d: the slot word ended at closing=%v|%d", r, closing, n)
		}
		if t.Failed() {
			return
		}
	}
	if a, r := admitted.Load(), resolved.Load(); a != r || a == 0 {
		t.Fatalf("%d calls admitted, %d resolved", a, r)
	}
	// A receiver is rooted by its link and by nothing else: live while the
	// link is open, garbage once it has closed — every round's is gone.
	var recv heap.Value
	hub.Sync(func() { recv = newReceiver(t, e) })
	link, err := hub.NewLink(e.caller, e.callee, e.method, recv, rpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := liveCallee(); got <= base {
		t.Fatalf("an open link does not keep its receiver alive (%d callee objects, %d without it)", got, base)
	}
	link.Close()
	if got := liveCallee(); got != base {
		t.Fatalf("%d callee objects live after %d links closed, %d before them: receiver roots were kept", got, rounds+1, base)
	}
	// One link at a time was open, so each Close retired the callee's pool.
	if st := hub.Stats(); st.PoolsLive != 0 || st.PoolsRetired != rounds+1 {
		t.Fatalf("pools live/retired = %d/%d after %d links opened and closed in turn", st.PoolsLive, st.PoolsRetired, rounds+1)
	}
}

// newReceiver makes one more Service instance in the callee. It drives the
// engine: with a hub on the VM, call it inside Sync.
func newReceiver(t *testing.T, e *rpcEnv) heap.Value {
	t.Helper()
	makeM, err := e.method.Class.LookupMethod("make", "()Ljava/lang/Object;")
	if err != nil {
		t.Fatal(err)
	}
	recv, th, err := e.vm.CallRoot(e.callee, makeM, nil, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("make service: %v / %s", err, th.FailureString())
	}
	return recv
}

// TestParkedShellHoldsNoGuestObject: a dispatch thread parked between calls
// keeps its frame stack but no guest object — not through its cleared
// frames, not through the result or uncaught exception of its last run —
// so once the caller releases a call, the callee's live heap is what it was
// before it, while Stats shows the very shell serving the next call. An
// aborted thread is retired instead, and the call after it spawns afresh.
func TestParkedShellHoldsNoGuestObject(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	vm := e.vm
	callee, id := newExtraIsolate(t, vm, "shells", "id", "(Ljava/lang/Object;)Ljava/lang/Object;")
	poke, err := id.Class.LookupMethod("poke", "(Ljava/lang/Object;)I")
	if err != nil {
		t.Fatal(err)
	}
	spin, err := id.Class.LookupMethod("spin", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	newLink := func(m *classfile.Method, opts rpc.LinkOptions) *rpc.Link {
		l, err := hub.NewLink(e.caller, callee, m, heap.Value{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	idLink, pokeLink := newLink(id, rpc.LinkOptions{}), newLink(poke, rpc.LinkOptions{})
	spinLink := newLink(spin, rpc.LinkOptions{CallBudget: 50_000})
	defer idLink.Close()
	defer pokeLink.Close()
	defer spinLink.Close()

	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	roots := vm.NewHostRoots(e.caller)
	defer roots.Release()
	payload, err := vm.AllocArrayRooted(roots, objClass, 3, e.caller)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload.Elems {
		inner, err := vm.AllocArrayRooted(roots, objClass, 2, e.caller)
		if err != nil {
			t.Fatal(err)
		}
		payload.Elems[i] = heap.RefVal(inner)
	}
	empty, err := vm.AllocArrayRooted(roots, objClass, 0, e.caller)
	if err != nil {
		t.Fatal(err)
	}

	liveCallee := func() heap.LiveStats {
		hub.Collect(nil)
		return callee.Live()
	}
	// roundTrip sends a reference argument through the deep-copy link, gets
	// a reference result back and lets go of it.
	roundTrip := func() {
		t.Helper()
		f, err := idLink.CallAsync([]heap.Value{heap.RefVal(payload)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Wait()
		if err != nil || v.R == nil || v.R == payload || len(v.R.Elems) != 3 {
			t.Fatalf("id(payload) = %+v, %v", v, err)
		}
		f.Release()
	}
	step := func(what string, wantReuse, wantFresh int64, call func()) {
		t.Helper()
		base, before := liveCallee(), hub.Stats()
		call()
		after := hub.Stats()
		if got := liveCallee(); got != base {
			t.Errorf("%s: the callee's live heap went from %+v to %+v across a released call", what, base, got)
		}
		if reuse, fresh := after.ShellReuses-before.ShellReuses, after.FreshSpawns-before.FreshSpawns; reuse != wantReuse || fresh != wantFresh {
			t.Errorf("%s: %d shell reuses and %d fresh spawns, want %d and %d", what, reuse, fresh, wantReuse, wantFresh)
		}
	}

	roundTrip() // warm: the pool's first thread is spawned here
	step("a call whose argument and result are references", 1, 0, roundTrip)
	step("a call that throws", 1, 0, func() {
		// poke stores into slot 0 of a zero-length array: the callee holds
		// the copied argument in a local and dies of the exception.
		_, err := pokeLink.Call([]heap.Value{heap.RefVal(empty)})
		if err == nil || !strings.Contains(err.Error(), "remote exception") {
			t.Fatalf("poke(empty) = %v, want a remote exception", err)
		}
	})
	step("the call after the throw", 1, 0, roundTrip)
	step("a call aborted on its budget", 1, 0, func() {
		if _, err := spinLink.Call([]heap.Value{heap.IntVal(1 << 30)}); !errors.Is(err, rpc.ErrCallBudget) {
			t.Fatalf("spin past the budget = %v, want ErrCallBudget", err)
		}
	})
	// The aborted thread was the pool's only shell and was retired.
	step("the call after the abort", 0, 1, roundTrip)
	step("and the one after", 1, 0, roundTrip)
	if n := vm.LiveThreads(); n != 0 {
		t.Fatalf("%d threads live with every call resolved", n)
	}
}

// TestHubPoolsBoundedByLiveCallees: a hub that serves one short-lived
// callee after another — install, link, call, close, kill — holds a pool,
// its worker goroutines and its shells for the callees that still have an
// open link, not for every callee it has ever served. Each call is made on
// an idle engine with the pool's workers parked, so its caller runs it:
// every batch is a helped one.
func TestHubPoolsBoundedByLiveCallees(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	const cycles = 200
	start := runtime.NumGoroutine()
	for i := 0; i < cycles; i++ {
		callee, spin := newExtraIsolate(t, e.vm, fmt.Sprintf("tenant-%d", i), "spin", "(I)I")
		link, err := hub.NewLink(e.caller, callee, spin, heap.Value{}, rpc.LinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		link.AwaitParkedWorkersForTest(rpc.DefaultWorkers)
		if v, err := link.Call([]heap.Value{heap.IntVal(5)}); err != nil || v.I != 5 {
			t.Fatalf("cycle %d: spin(5) = %d, %v", i, v.I, err)
		}
		if st := hub.Stats(); st.PoolsLive != 1 {
			t.Fatalf("cycle %d: %d pools live with one link open", i, st.PoolsLive)
		}
		link.Close()
		hub.Sync(func() {
			if err := e.vm.KillIsolate(nil, callee); err != nil {
				t.Fatal(err)
			}
		})
	}
	st := hub.Stats()
	if st.PoolsLive != 0 || st.PoolsRetired != cycles {
		t.Errorf("pools live/retired = %d/%d after %d cycles, want 0/%d", st.PoolsLive, st.PoolsRetired, cycles, cycles)
	}
	if st.Calls != cycles || st.FreshSpawns != cycles || st.MaxQueue != 1 {
		t.Errorf("stats after %d one-call pools: %+v", cycles, st)
	}
	if st.Batches != cycles || st.Helped != cycles {
		t.Errorf("%d of %d batches ran on the waiting caller's goroutine, want all of them: a Call on an idle engine runs its own request", st.Helped, st.Batches)
	}
	if now := runtime.NumGoroutine(); now > start+4 {
		t.Errorf("%d goroutines after %d cycles, %d before them", now, cycles, start)
	}

	// A callee that is linked again after its pool retired gets a fresh one,
	// and two links to one callee share it until the second closes.
	callee, spin := newExtraIsolate(t, e.vm, "again", "spin", "(I)I")
	for round := 0; round < 2; round++ {
		a, err := hub.NewLink(e.caller, callee, spin, heap.Value{}, rpc.LinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := hub.NewLink(e.caller, callee, spin, heap.Value{}, rpc.LinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a.Close()
		if st := hub.Stats(); st.PoolsLive != 1 {
			t.Fatalf("round %d: %d pools live with the callee's second link open", round, st.PoolsLive)
		}
		if v, err := b.Call([]heap.Value{heap.IntVal(2)}); err != nil || v.I != 2 {
			t.Fatalf("round %d: a call through the remaining link = %d, %v", round, v.I, err)
		}
		b.Close()
		if st := hub.Stats(); st.PoolsLive != 0 || st.PoolsRetired != int64(cycles+round+1) {
			t.Fatalf("round %d: pools live/retired = %d/%d", round, st.PoolsLive, st.PoolsRetired)
		}
	}
}

// TestSerialLinkClosedIsSentinel: the baseline link reports closure with
// the same error identity as the hub link.
func TestSerialLinkClosedIsSentinel(t *testing.T) {
	e := newRPCEnv(t)
	link := rpc.NewSerialLink(e.vm, e.caller, e.callee, e.method, e.recv)
	if _, err := link.Call([]heap.Value{heap.IntVal(1)}); err != nil {
		t.Fatal(err)
	}
	link.Close()
	if _, err := link.Call([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrLinkClosed) {
		t.Fatalf("SerialLink.Call after Close = %v, want ErrLinkClosed", err)
	}
}
