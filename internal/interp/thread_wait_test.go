package interp_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

// twClass holds work(n), which counts to n and returns it, and forever(),
// which never returns.
func twClass() *classfile.Class {
	return classfile.NewClass("tw/W").
		Method("work", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done").ILoad(0).IReturn()
		}).
		Method("forever", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").IInc(0, 1).Goto("loop")
		}).MustBuild()
}

// twWaiters starts n host goroutines blocked in th.Wait. Each counts its
// release and fails t if th was not finished when it was released.
func twWaiters(t *testing.T, th *interp.Thread, n int, released *atomic.Int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th.Wait()
			released.Add(1)
			if !th.Done() {
				t.Errorf("a waiter on %s was released while the thread runs", th.Name())
			}
		}()
	}
	return &wg
}

// TestThreadWait: Thread.Wait releases every waiter on a run once that run
// has finished — returned on two workers, respawned as a shell (the
// waiters of each run are released by that run and by no earlier one),
// aborted by its host, or unwound by a kill of its isolate.
func TestThreadWait(t *testing.T) {
	setup := func(t *testing.T) (*interp.VM, *core.Isolate, *classfile.Method, *classfile.Method) {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
		syslib.MustInstall(vm)
		if _, err := vm.NewIsolate("runtime"); err != nil {
			t.Fatal(err)
		}
		iso, err := vm.NewIsolate("tenant")
		if err != nil {
			t.Fatal(err)
		}
		c := define(t, iso, twClass())
		return vm, iso, findMethod(t, c, "work"), findMethod(t, c, "forever")
	}
	const waiters = 16

	t.Run("many waiters", func(t *testing.T) {
		vm, iso, work, _ := setup(t)
		th, err := vm.SpawnThread("w", iso, work, []heap.Value{heap.IntVal(2_000_000)})
		if err != nil {
			t.Fatal(err)
		}
		var released atomic.Int64
		wg := twWaiters(t, th, waiters, &released)
		sched.Run(vm, 2, 0)
		wg.Wait()
		if n := released.Load(); n != waiters || th.Result().I != 2_000_000 {
			t.Fatalf("%d of %d waiters released, result %d", n, waiters, th.Result().I)
		}
		th.Wait() // a finished run releases at once
	})

	t.Run("respawned shell", func(t *testing.T) {
		vm, iso, work, _ := setup(t)
		th, err := vm.SpawnThread("shell", iso, work, []heap.Value{heap.IntVal(1)})
		if err != nil {
			t.Fatal(err)
		}
		vm.RunUntil(th, 0)
		th.Wait()
		for round := int64(0); round < 20; round++ {
			n := 50_000 + round
			if err := vm.RespawnThread(th, "shell", iso, work, []heap.Value{heap.IntVal(n)}); err != nil {
				t.Fatal(err)
			}
			var released atomic.Int64
			wg := twWaiters(t, th, waiters, &released)
			time.Sleep(time.Millisecond) // let the waiters park
			if r := released.Load(); r != 0 {
				t.Fatalf("round %d: %d waiters released before the run started", round, r)
			}
			vm.RunUntil(th, 0)
			wg.Wait()
			if r := released.Load(); r != waiters || th.Result().I != n {
				t.Fatalf("round %d: %d of %d waiters released, result %d, want %d", round, r, waiters, th.Result().I, n)
			}
		}
	})

	t.Run("aborted", func(t *testing.T) {
		vm, iso, _, forever := setup(t)
		th, err := vm.SpawnThread("aborted", iso, forever, nil)
		if err != nil {
			t.Fatal(err)
		}
		vm.RunUntil(th, 10_000)
		var released atomic.Int64
		wg := twWaiters(t, th, waiters, &released)
		time.Sleep(time.Millisecond)
		if r := released.Load(); r != 0 {
			t.Fatalf("%d waiters released before the abort", r)
		}
		abort := errors.New("budget spent")
		vm.AbortRootThread(th, abort)
		wg.Wait()
		if r := released.Load(); r != waiters || th.Err() != abort {
			t.Fatalf("%d of %d waiters released, err %v", r, waiters, th.Err())
		}
	})

	t.Run("killed", func(t *testing.T) {
		vm, iso, _, forever := setup(t)
		th, err := vm.SpawnThread("victim", iso, forever, nil)
		if err != nil {
			t.Fatal(err)
		}
		var released atomic.Int64
		wg := twWaiters(t, th, waiters, &released)
		run := sched.Start(vm, sched.Config{Workers: 2})
		if r := released.Load(); r != 0 {
			t.Fatalf("%d waiters released before the kill", r)
		}
		if err := vm.KillIsolate(nil, iso); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		run.Wait()
		if r := released.Load(); r != waiters || th.Failure() == nil {
			t.Fatalf("%d of %d waiters released, failure %q", r, waiters, th.FailureString())
		}
	})
}
