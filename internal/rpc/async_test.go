package rpc_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
)

// extraClassName holds static helpers the async tests dispatch into:
// a spin loop (cancellation targets), an identity function (payload
// round trips), and an array poke (frozen-store rejection).
const extraClassName = "rpctest/Extra"

func extraClasses() []*classfile.Class {
	c := classfile.NewClass(extraClassName).
		// spin(n): n empty iterations, returns n.
		Method("spin", "(I)I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1)
			a.Goto("loop")
			a.Label("done")
			a.ILoad(1).IReturn()
		}).
		// id(x): returns its argument.
		Method("id", "(Ljava/lang/Object;)Ljava/lang/Object;", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).AReturn()
		}).
		// poke(arr): arr[0] = 9 — the frozen-array rejection probe.
		Method("poke", "(Ljava/lang/Object;)I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).Const(0).Const(9).ArrayStore()
			a.Const(1).IReturn()
		}).MustBuild()
	return []*classfile.Class{c}
}

// newAsyncEnv is newRPCEnv plus the extra helper class and a hub.
func newAsyncEnv(t *testing.T) (*rpcEnv, *rpc.Hub) {
	t.Helper()
	e := newRPCEnv(t)
	if err := e.callee.Loader().DefineAll(extraClasses()); err != nil {
		t.Fatal(err)
	}
	return e, rpc.NewHub(e.vm)
}

func (e *rpcEnv) extraMethod(t *testing.T, name, desc string) *classfile.Method {
	t.Helper()
	c, err := e.callee.Loader().Lookup(extraClassName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod(name, desc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAsyncConcurrentCallers is the regression for the seed's
// whole-call link mutex: N goroutines call through one link
// concurrently; every increment must land.
func TestAsyncConcurrentCallers(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	link, err := hub.NewLink(e.caller, e.callee, e.method, e.recv, rpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	const callers, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := link.Call([]heap.Value{heap.IntVal(1)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, err := link.Call([]heap.Value{heap.IntVal(0)})
	if err != nil {
		t.Fatal(err)
	}
	if v.I != callers*calls {
		t.Fatalf("service total = %d, want %d", v.I, callers*calls)
	}
}

// TestPipelinedAsyncCalls checks futures resolve in submission order
// with correct values when a burst is pipelined through one link.
func TestPipelinedAsyncCalls(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	link, err := hub.NewLink(e.caller, e.callee, e.method, e.recv, rpc.LinkOptions{QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	futs := make([]*rpc.Future, 16)
	for i := range futs {
		if futs[i], err = link.CallAsync([]heap.Value{heap.IntVal(1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	seen := make(map[int64]bool)
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if v.I < 1 || v.I > 16 || seen[v.I] {
			t.Fatalf("call %d returned %d (duplicate or out of range)", i, v.I)
		}
		seen[v.I] = true
		f.Release()
	}
}

// TestCloseDuringInFlightCall: a hung callee must not block Close for
// the whole call budget — cancellation lands at a slice boundary.
func TestCloseDuringInFlightCall(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{CallBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := link.CallAsync([]heap.Value{heap.IntVal(1 << 30)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the dispatch start spinning
	start := time.Now()
	link.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close blocked %v behind a hung callee", elapsed)
	}
	if _, err := fut.Wait(); !errors.Is(err, rpc.ErrLinkClosed) {
		t.Fatalf("in-flight call resolved with %v, want ErrLinkClosed", err)
	}
	fut.Release()
}

// TestKillDuringCall: killing the callee isolate cancels in-flight
// calls and fails subsequent submissions fast.
func TestKillDuringCall(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	// The env's callee is Isolate0, which cannot be killed — dispatch
	// into a separate victim isolate instead.
	victimLoader := e.vm.Registry().NewLoader("victim")
	victim, err := e.vm.World().NewIsolate("victim", victimLoader)
	if err != nil {
		t.Fatal(err)
	}
	if err := victimLoader.DefineAll(extraClasses()); err != nil {
		t.Fatal(err)
	}
	victimClass, err := victimLoader.Lookup(extraClassName)
	if err != nil {
		t.Fatal(err)
	}
	spin, err := victimClass.LookupMethod("spin", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	link, err := hub.NewLink(e.caller, victim, spin, heap.Value{}, rpc.LinkOptions{CallBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	fut, err := link.CallAsync([]heap.Value{heap.IntVal(1 << 30)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	hub.Sync(func() {
		if err := e.vm.KillIsolate(nil, victim); err != nil {
			t.Error(err)
		}
	})
	if _, err := fut.Wait(); err == nil {
		t.Fatal("call into killed isolate succeeded")
	}
	fut.Release()
	if _, err := link.CallAsync([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrCalleeStopped) {
		t.Fatalf("post-kill submission: %v, want ErrCalleeStopped", err)
	}
}

// TestSaturationFailFast: CallAsync rejects instead of blocking when
// QueueDepth calls are unresolved.
func TestSaturationFailFast(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{QueueDepth: 1, CallBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := link.CallAsync([]heap.Value{heap.IntVal(1 << 30)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.CallAsync([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrSaturated) {
		t.Fatalf("saturated submission: %v, want ErrSaturated", err)
	}
	link.Close()
	if _, err := fut.Wait(); !errors.Is(err, rpc.ErrLinkClosed) {
		t.Fatalf("cancelled call: %v, want ErrLinkClosed", err)
	}
	fut.Release()
}

// TestFullDepthPipelineNeverSaturates: a caller that keeps exactly
// QueueDepth calls in flight and resubmits the moment the oldest
// resolves is within its admission budget at every instant, so it must
// never be refused. It was, while a resolution was published before the
// call's slot was retired: the woken caller raced the worker to the slot.
func TestFullDepthPipelineNeverSaturates(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	const depth, calls = 16, 10_000
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	var window [depth]*rpc.Future
	for i := 0; i < calls+depth; i++ {
		slot := &window[i%depth]
		oldest := *slot
		if oldest != nil {
			// Poll rather than park: the resubmission below then follows
			// the resolution within nanoseconds, not a goroutine wake-up.
			v, err, ok := oldest.TryResult()
			for !ok {
				runtime.Gosched()
				v, err, ok = oldest.TryResult()
			}
			if err != nil || v.I != 3 {
				t.Fatalf("call %d: %v / %d", i-depth, err, v.I)
			}
			*slot = nil
		}
		if i < calls {
			if *slot, err = link.CallAsync([]heap.Value{heap.IntVal(3)}); err != nil {
				t.Fatalf("submission %d with %d calls in flight: %v", i, min(i, depth-1), err)
			}
		}
		if oldest != nil {
			oldest.Release()
		}
	}
}

// TestCallBudgetAborts: an over-budget callee resolves with
// ErrCallBudget and leaves no runnable zombie thread behind.
func TestCallBudgetAborts(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{CallBudget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if _, err := link.Call([]heap.Value{heap.IntVal(1 << 30)}); !errors.Is(err, rpc.ErrCallBudget) {
		t.Fatalf("over-budget call: %v, want ErrCallBudget", err)
	}
	if n := e.vm.LiveThreads(); n != 0 {
		t.Fatalf("%d threads still live after budget abort", n)
	}
	// The link stays usable for calls that fit the budget.
	v, err := link.Call([]heap.Value{heap.IntVal(10)})
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 10 {
		t.Fatalf("spin(10) = %d", v.I)
	}
}

// TestCopyBudgetBoundary: a payload of exactly CopyBudget objects
// passes; one more object is rejected with ErrCopyBudget; a very deep
// graph errors instead of exhausting the Go stack.
func TestCopyBudgetBoundary(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	id := e.extraMethod(t, "id", "(Ljava/lang/Object;)Ljava/lang/Object;")
	objClass, err := e.vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}

	// chain(n) builds an n-deep linked list of 1-element arrays, rooted
	// for the test's duration.
	chain := func(n int, roots *interp.HostRoots) heap.Value {
		var next *heap.Object
		for i := 0; i < n; i++ {
			arr, err := e.vm.AllocArrayRooted(roots, objClass, 1, e.caller)
			if err != nil {
				t.Fatal(err)
			}
			if next != nil {
				arr.Elems[0] = heap.RefVal(next)
			}
			next = arr
		}
		return heap.RefVal(next)
	}

	const budget = 64
	link, err := hub.NewLink(e.caller, e.callee, id, heap.Value{}, rpc.LinkOptions{CopyBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	roots := e.vm.NewHostRoots(e.caller)
	defer roots.Release()
	if _, err := link.Call([]heap.Value{chain(budget, roots)}); err != nil {
		t.Fatalf("budget-sized payload rejected: %v", err)
	}
	if _, err := link.Call([]heap.Value{chain(budget+1, roots)}); !errors.Is(err, rpc.ErrCopyBudget) {
		t.Fatalf("over-budget payload: %v, want ErrCopyBudget", err)
	}

	deep, err := hub.NewLink(e.caller, e.callee, id, heap.Value{}, rpc.LinkOptions{CopyBudget: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	defer deep.Close()
	fut, err := deep.CallAsync([]heap.Value{chain(100_000, roots)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Wait()
	if err != nil {
		t.Fatalf("100k-deep graph: %v", err)
	}
	depth := 0
	for o := v.R; o != nil; o = o.Elems[0].R {
		depth++
	}
	fut.Release()
	if depth != 100_000 {
		t.Fatalf("copied chain depth = %d, want 100000", depth)
	}
}

// TestZeroCopyInternedString: with ZeroCopy on, a caller-interned
// string crosses the link by reference in both directions — the result
// is the very same object, no copy at all.
func TestZeroCopyInternedString(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	id := e.extraMethod(t, "id", "(Ljava/lang/Object;)Ljava/lang/Object;")
	link, err := hub.NewLink(e.caller, e.callee, id, heap.Value{}, rpc.LinkOptions{ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	str, err := e.vm.InternString(nil, e.caller, "zero-copy-payload")
	if err != nil {
		t.Fatal(err)
	}
	v, err := link.Call([]heap.Value{heap.RefVal(str)})
	if err != nil {
		t.Fatal(err)
	}
	if v.R != str {
		t.Fatalf("interned string was copied (got %p, want %p)", v.R, str)
	}
	if canon, ok := e.callee.InternedString("zero-copy-payload"); !ok || canon != str {
		t.Fatal("shared string not published into the callee's pool")
	}

	// A non-interned string still copies.
	fresh, err := e.vm.NewStringObject(nil, e.caller, "fresh-payload")
	if err != nil {
		t.Fatal(err)
	}
	v, err = link.Call([]heap.Value{heap.RefVal(fresh)})
	if err != nil {
		t.Fatal(err)
	}
	if v.R == fresh {
		t.Fatal("non-interned string shared by reference")
	}
	if s, _ := v.R.StringValue(); s != "fresh-payload" {
		t.Fatalf("copied string = %q", s)
	}
}

// TestZeroCopyFrozenArray: frozen arrays cross by reference, guest
// stores into them are rejected, and the call's root batches drain after
// release.
func TestZeroCopyFrozenArray(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	objClass, err := e.vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	roots := e.vm.NewHostRoots(e.caller)
	defer roots.Release()
	arr, err := e.vm.AllocArrayRooted(roots, objClass, 4, e.caller)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		arr.Elems[i] = heap.IntVal(int64(i))
	}
	if err := heap.Freeze(arr); err != nil {
		t.Fatal(err)
	}
	baseRoots := e.vm.HostRootBatches()

	id := e.extraMethod(t, "id", "(Ljava/lang/Object;)Ljava/lang/Object;")
	link, err := hub.NewLink(e.caller, e.callee, id, heap.Value{}, rpc.LinkOptions{ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := link.CallAsync([]heap.Value{heap.RefVal(arr)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v.R != arr {
		t.Fatal("frozen array was copied")
	}
	fut.Release()
	if n := e.vm.HostRootBatches(); n != baseRoots {
		t.Fatalf("%d host root batches registered after release, want %d", n, baseRoots)
	}

	// Guest stores into the shared frozen payload must be rejected.
	poke := e.extraMethod(t, "poke", "(Ljava/lang/Object;)I")
	pokeLink, err := hub.NewLink(e.caller, e.callee, poke, heap.Value{}, rpc.LinkOptions{ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pokeLink.Close()
	_, err = pokeLink.Call([]heap.Value{heap.RefVal(arr)})
	if err == nil || !strings.Contains(err.Error(), "IllegalStateException") {
		t.Fatalf("store into frozen array: %v, want IllegalStateException", err)
	}
	if arr.Elems[0].I != 0 {
		t.Fatalf("frozen array mutated: %d", arr.Elems[0].I)
	}
	link.Close()

	// Without ZeroCopy the same frozen array is deep-copied and the
	// callee may scribble on its own copy.
	copyLink, err := hub.NewLink(e.caller, e.callee, poke, heap.Value{}, rpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer copyLink.Close()
	if _, err := copyLink.Call([]heap.Value{heap.RefVal(arr)}); err != nil {
		t.Fatalf("poke on deep copy: %v", err)
	}
	if arr.Elems[0].I != 0 {
		t.Fatal("deep-copy call mutated the caller's array")
	}
}

// TestThrottledCallerRefused: a governor-throttled caller is refused at
// submission (before any queue or dispatch work), and admission returns
// as soon as the throttle lifts.
func TestThrottledCallerRefused(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	link, err := hub.NewLink(e.caller, e.callee, e.method, e.recv, rpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	e.caller.SetThrottled(true)
	if _, err := link.CallAsync([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrThrottled) {
		t.Fatalf("throttled CallAsync: %v, want ErrThrottled", err)
	}
	if _, err := link.Call([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrThrottled) {
		t.Fatalf("throttled Call: %v, want ErrThrottled", err)
	}

	e.caller.SetThrottled(false)
	v, err := link.Call([]heap.Value{heap.IntVal(2)})
	if err != nil {
		t.Fatalf("unthrottled call: %v", err)
	}
	if v.I != 2 {
		t.Fatalf("unthrottled call = %d, want 2", v.I)
	}
}

// TestSaturationChargesCaller: a submission refused by a full
// pipelining window charges the caller's RPCSaturated counter — the
// governor's flood signal.
func TestSaturationChargesCaller(t *testing.T) {
	e, hub := newAsyncEnv(t)
	defer hub.Close()
	spin := e.extraMethod(t, "spin", "(I)I")
	link, err := hub.NewLink(e.caller, e.callee, spin, heap.Value{}, rpc.LinkOptions{QueueDepth: 1, CallBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	before := e.caller.Account().RPCSaturated.Load()
	fut, err := link.CallAsync([]heap.Value{heap.IntVal(1 << 30)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.CallAsync([]heap.Value{heap.IntVal(1)}); !errors.Is(err, rpc.ErrSaturated) {
		t.Fatalf("saturated submission: %v, want ErrSaturated", err)
	}
	if got := e.caller.Account().RPCSaturated.Load(); got != before+1 {
		t.Fatalf("RPCSaturated = %d, want %d", got, before+1)
	}
	link.Close()
	if _, err := fut.Wait(); !errors.Is(err, rpc.ErrLinkClosed) {
		t.Fatalf("cancelled call: %v, want ErrLinkClosed", err)
	}
	fut.Release()
}
