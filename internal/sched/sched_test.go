package sched_test

import (
	"fmt"
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

// spinClasses builds a class whose run(n) method burns n loop iterations
// and stores the count in a static, returning it.
func spinClasses(name string) *classfile.Class {
	return classfile.NewClass(name).
		StaticField("count", classfile.KindInt).
		Method("run", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(1).PutStatic(name, "count")
			a.GetStatic(name, "count").IReturn()
		}).MustBuild()
}

func newIsolatedVM(t testing.TB, opts interp.Options) *interp.VM {
	t.Helper()
	if opts.Mode == 0 {
		opts.Mode = core.ModeIsolated
	}
	vm := interp.NewVM(opts)
	syslib.MustInstall(vm)
	return vm
}

// TestConcurrentBasic runs independent compute threads in 8 isolates on
// 4 workers and checks every thread finishes with the right result.
func TestConcurrentBasic(t *testing.T) {
	vm := newIsolatedVM(t, interp.Options{})
	const n = 8
	var threads []*interp.Thread
	for i := 0; i < n; i++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("iso%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cn := fmt.Sprintf("demo/Spin%d", i)
		if err := iso.Loader().Define(spinClasses(cn)); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup(cn)
		m, _ := c.LookupMethod("run", "(I)I")
		th, err := vm.SpawnThread(fmt.Sprintf("spin%d", i), iso, m, []heap.Value{heap.IntVal(int64(10_000 + i))})
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	res := sched.Run(vm, 4, 0)
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	for i, th := range threads {
		if !th.Done() {
			t.Fatalf("thread %d not done (%v)", i, th.State())
		}
		if th.Failure() != nil {
			t.Fatalf("thread %d failed: %s", i, th.FailureString())
		}
		if want := int64(10_000 + i); th.Result().I != want {
			t.Fatalf("thread %d = %d, want %d", i, th.Result().I, want)
		}
	}
	if len(res.PerIsolate) != n {
		t.Fatalf("PerIsolate has %d entries, want %d", len(res.PerIsolate), n)
	}
	var sum int64
	for _, ir := range res.PerIsolate {
		sum += ir.Instructions
	}
	if sum != res.Instructions || sum == 0 {
		t.Fatalf("per-isolate instructions sum %d != total %d", sum, res.Instructions)
	}
}

// TestConcurrentBudget checks the global budget stops the run.
func TestConcurrentBudget(t *testing.T) {
	vm := newIsolatedVM(t, interp.Options{})
	iso, _ := vm.NewIsolate("main")
	cn := "demo/SpinB"
	if err := iso.Loader().Define(spinClasses(cn)); err != nil {
		t.Fatal(err)
	}
	c, _ := iso.Loader().Lookup(cn)
	m, _ := c.LookupMethod("run", "(I)I")
	if _, err := vm.SpawnThread("spin", iso, m, []heap.Value{heap.IntVal(100_000_000)}); err != nil {
		t.Fatal(err)
	}
	res := sched.Run(vm, 2, 50_000)
	if !res.BudgetExhausted {
		t.Fatalf("expected budget exhaustion, got %+v", res)
	}
	if res.Instructions > 60_000 {
		t.Fatalf("executed %d instructions, budget was 50k", res.Instructions)
	}
}

// TestSpawnRightAfterWarmedStart: a VM that already executed instructions
// on the host (a template warm-up) starts a concurrent run, and the host
// spawns a burst of threads the moment AwaitStart returns. Every one must
// land in a shard and run. With the "instruction count is non-zero"
// start-up wait this replaces, a warmed VM let the burst straddle the gap
// between the scheduler's initial thread scan and its hook installation,
// and the threads spawned inside it were lost.
func TestSpawnRightAfterWarmedStart(t *testing.T) {
	for round := 0; round < 20; round++ {
		vm := newIsolatedVM(t, interp.Options{})
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().Define(spinClasses("warm/Spin")); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup("warm/Spin")
		m, _ := c.LookupMethod("run", "(I)I")
		if _, _, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(10)}, 0); err != nil {
			t.Fatal(err)
		}
		if vm.TotalInstructions() == 0 {
			t.Fatal("warm-up executed nothing")
		}
		// The keeper holds the run open until the burst has finished.
		keeper, err := vm.SpawnThread("keeper", iso, m, []heap.Value{heap.IntVal(1 << 40)})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan interp.RunResult, 1)
		go func() { done <- sched.Run(vm, 2, 0) }()
		sched.AwaitStart(vm)
		var burst []*interp.Thread
		for i := 0; i < 256; i++ {
			th, err := vm.SpawnThread("late", iso, m, []heap.Value{heap.IntVal(100)})
			if err != nil {
				t.Fatal(err)
			}
			burst = append(burst, th)
		}
		deadline := time.Now().Add(10 * time.Second)
		for i, th := range burst {
			for !th.Done() {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: thread %d of the burst spawned right after start never ran", round, i)
				}
				time.Sleep(50 * time.Microsecond)
			}
			if th.Result().I != 100 {
				t.Fatalf("round %d: burst thread %d returned %d", round, i, th.Result().I)
			}
		}
		vm.Shutdown()
		if res := <-done; !res.Shutdown || keeper.Done() {
			t.Fatalf("round %d: run ended with %+v, keeper done=%v", round, res, keeper.Done())
		}
	}
}
