package sched_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
)

// spinForever defines a class whose attack() never returns and spawns one
// thread running it in a new isolate.
func spinForever(t *testing.T, vm *interp.VM, k int) {
	t.Helper()
	iso, err := vm.NewIsolate(fmt.Sprintf("busy%d", k))
	if err != nil {
		t.Fatal(err)
	}
	cn := fmt.Sprintf("share/Busy%d", k)
	c := classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").IInc(0, 1).Goto("loop")
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("attack", "()V")
	if _, err := vm.SpawnThread(cn, iso, m, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHostGoroutineNotStarved pins the yield contract: with a busy worker
// on every processor, a host goroutine polling with 20 µs sleeps — a
// gateway client waiting for its request, a serving pool's refiller —
// still runs every few slices. It is stated in counters, not wall time:
// while the host goroutine completes 500 iterations each worker may run at
// most 32 slices per iteration (3 or 4 here, fewer under -race, where the
// guest slows down more than the host), and at least half the slices must
// end in a yield. Without the yield the host runs when the Go runtime's
// sysmon preempts a worker, every 10 ms: about 250 slices per worker per
// iteration, and none yields.
func TestHostGoroutineNotStarved(t *testing.T) {
	const (
		quantum          = 100
		slice            = 8 * quantum // sliceFactor quanta
		hostIterations   = 500
		slicesPerIterMax = 32
	)
	workers := runtime.GOMAXPROCS(0)
	vm := newIsolatedVM(t, interp.Options{Quantum: quantum})
	for k := 0; k < workers; k++ {
		spinForever(t, vm, k)
	}
	run := sched.Start(vm, sched.Config{Workers: workers})

	before := vm.TotalInstructions()
	for i := 0; i < hostIterations; i++ {
		time.Sleep(20 * time.Microsecond)
	}
	perIter := (vm.TotalInstructions() - before) / slice / hostIterations / int64(workers)
	vm.Shutdown()
	res := run.Wait()
	if !res.Shutdown {
		t.Fatalf("run ended without shutdown: %+v", res)
	}
	slices := res.Instructions / slice
	t.Logf("%d busy workers ran %d slices each per host iteration; %d of %d slices ended in a yield",
		workers, perIter, res.Sched.Yields, slices)
	if perIter > slicesPerIterMax {
		t.Errorf("each of %d busy workers ran %d slices per host iteration, want <= %d", workers, perIter, slicesPerIterMax)
	}
	if res.Sched.Yields < slices/2 {
		t.Errorf("%d of %d slices ended in a yield, want at least half", res.Sched.Yields, slices)
	}
}

// Roles in lockLoopClass's contention handshake.
const (
	lockAlone = iota
	lockHolder
	lockContender
)

// lockLoopClass builds run(lock, n, flags): n times, enter lock's monitor,
// call the synchronized static hold(spin) — which burns spin iterations
// with both monitors held — and exit. A holder and a contender first meet
// on flags, a two-slot array whose slots they set and read under its own
// monitor: the holder enters lock and sets flags[0]; the contender waits
// for it, sets flags[1] just before its first monitorenter; the holder
// waits for that, burns one more hold(spin) and only then lets go. So the
// contender is at lock's monitorenter while the holder owns it, however
// the host schedules the two workers. Locals: 0 lock, 1 n, 2 flags, 3 i,
// 4 acc, 5 tmp.
func lockLoopClass(cn string, spin, role int) *classfile.Class {
	set := func(a *bytecode.Assembler, slot int64) {
		a.ALoad(2).MonitorEnter()
		a.ALoad(2).Const(slot).ALoad(2).ArrayStore()
		a.ALoad(2).MonitorExit()
	}
	await := func(a *bytecode.Assembler, slot int64) {
		label := fmt.Sprintf("await%d", slot)
		a.Label(label).ALoad(2).MonitorEnter()
		a.ALoad(2).Const(slot).ArrayLoad().AStore(5)
		a.ALoad(2).MonitorExit()
		a.ALoad(5).IfNull(label)
	}
	return classfile.NewClass(cn).
		Method("hold", "(I)I", classfile.FlagStatic|classfile.FlagSynchronized, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done").Const(1).IReturn()
		}).
		Method("run", "(Ljava/lang/Object;ILjava/lang/Object;)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			switch role {
			case lockHolder:
				a.ALoad(0).MonitorEnter()
				set(a, 0)
				await(a, 1)
				a.Const(int64(spin)).InvokeStatic(cn, "hold", "(I)I").Pop()
				a.ALoad(0).MonitorExit()
			case lockContender:
				await(a, 0)
				set(a, 1)
			}
			a.Const(0).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(3).ILoad(1).IfICmpGe("done")
			a.ALoad(0).MonitorEnter()
			a.ILoad(4).Const(int64(spin)).InvokeStatic(cn, "hold", "(I)I").IAdd().IStore(4)
			a.ALoad(0).MonitorExit()
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(4).IReturn()
		}).MustBuild()
}

// lockLoopRun runs one lockLoopClass thread in each of two isolates on 2
// workers; shared selects one lock object for both, the first thread its
// holder and the second its contender, or one lock each.
func lockLoopRun(t *testing.T, iters, spin int, shared bool) interp.RunResult {
	t.Helper()
	vm := newIsolatedVM(t, interp.Options{})
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	var lock *heap.Object
	flags := heap.Null()
	var threads []*interp.Thread
	for k := 0; k < 2; k++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("locker%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if lock == nil || !shared {
			// Kept alive by the thread's frame.
			if lock, err = vm.AllocObjectIn(nil, objClass, iso); err != nil {
				t.Fatal(err)
			}
		}
		role := lockAlone
		if shared {
			role = lockHolder + k
			if flags.R == nil {
				a, err := vm.AllocArrayIn(nil, objClass, 2, iso)
				if err != nil {
					t.Fatal(err)
				}
				flags = heap.RefVal(a)
			}
		}
		cn := fmt.Sprintf("share/Lock%d", k)
		c := lockLoopClass(cn, spin, role)
		if err := iso.Loader().Define(c); err != nil {
			t.Fatal(err)
		}
		m, _ := c.LookupMethod("run", "(Ljava/lang/Object;ILjava/lang/Object;)I")
		th, err := vm.SpawnThread(cn, iso, m, []heap.Value{heap.RefVal(lock), heap.IntVal(int64(iters)), flags})
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	res := sched.Run(vm, 2, 0)
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	for k, th := range threads {
		if th.Failure() != nil || th.Err() != nil || th.Result().I != int64(iters) {
			t.Fatalf("locker%d: result %d, want %d (%v / %s)", k, th.Result().I, iters, th.Err(), th.FailureString())
		}
	}
	return res
}

// TestMonitorReleaseQuietWhenUncontended: a monitor release or a thread
// finish calls the scheduler only while some thread is blocked on a
// monitor or joining. 100k uncontended synchronized calls and explicit
// monitor sections on each of two workers take the pool lock zero times;
// two threads fighting over one monitor, each holding it across several
// quanta, still hand it over through the hook.
func TestMonitorReleaseQuietWhenUncontended(t *testing.T) {
	if res := lockLoopRun(t, 100_000, 0, false); res.Sched.ThreadsChangedCalls != 0 {
		t.Fatalf("uncontended monitor traffic made %d ThreadsChanged calls, want 0", res.Sched.ThreadsChangedCalls)
	}
	if res := lockLoopRun(t, 300, 600, true); res.Sched.ThreadsChangedCalls == 0 {
		t.Fatal("a contended monitor was handed over without a ThreadsChanged call")
	}
}
