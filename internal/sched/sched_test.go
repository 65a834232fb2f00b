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
// administers it the instant Start returns — a burst of spawns, then a
// collection and a kill — while another host goroutine spawns during
// Start itself. Every spawned thread must land in a shard and run: a
// spawn that fell between the scheduler's initial thread scan and its
// attach would be lost. The collection and the kill must each park the
// workers: issued before the attach they would run beside workers nobody
// parked, and the victim's spinning thread could outlive its kill. On a
// warmed VM, waiting for the instruction count to leave zero is no
// start-up wait at all, which is how the lost spawns were first seen.
func TestSpawnRightAfterWarmedStart(t *testing.T) {
	for round := 0; round < 20; round++ {
		vm := newIsolatedVM(t, interp.Options{})
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		victim, err := vm.NewIsolate("victim")
		if err != nil {
			t.Fatal(err)
		}
		spin := func(in *core.Isolate) *classfile.Method {
			if err := in.Loader().Define(spinClasses("warm/Spin")); err != nil {
				t.Fatal(err)
			}
			c, _ := in.Loader().Lookup("warm/Spin")
			m, _ := c.LookupMethod("run", "(I)I")
			return m
		}
		m, victimRun := spin(iso), spin(victim)
		if _, _, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(10)}, 0); err != nil {
			t.Fatal(err)
		}
		if vm.TotalInstructions() == 0 {
			t.Fatal("warm-up executed nothing")
		}
		// The keeper holds the run open until the burst has finished; the
		// spinner runs until the kill unwinds it.
		keeper, err := vm.SpawnThread("keeper", iso, m, []heap.Value{heap.IntVal(1 << 40)})
		if err != nil {
			t.Fatal(err)
		}
		spinner, err := vm.SpawnThread("spinner", victim, victimRun, []heap.Value{heap.IntVal(1 << 40)})
		if err != nil {
			t.Fatal(err)
		}
		stop := func() {
			vm.CollectGarbage(nil)
			if err := vm.KillIsolate(nil, victim); err != nil {
				t.Fatal(err)
			}
		}
		spawn := func(name string) *interp.Thread {
			th, err := vm.SpawnThread(name, iso, m, []heap.Value{heap.IntVal(100)})
			if err != nil {
				t.Error(err)
			}
			return th
		}
		racing := make(chan []*interp.Thread)
		go func() {
			var ths []*interp.Thread
			for i := 0; i < 64; i++ {
				ths = append(ths, spawn("racing"))
			}
			racing <- ths
		}()
		// Even rounds stop first, odd rounds spawn first: each half meets
		// a run that Start has only just returned.
		run := sched.Start(vm, sched.Config{Workers: 2})
		if round%2 == 0 {
			stop()
		}
		var burst []*interp.Thread
		for i := 0; i < 256; i++ {
			burst = append(burst, spawn("late"))
		}
		if round%2 == 1 {
			stop()
		}
		burst = append(burst, <-racing...)
		if t.Failed() {
			t.FailNow()
		}
		waited := make(chan struct{})
		go func() {
			for _, th := range append(burst, spinner) {
				th.Wait()
			}
			close(waited)
		}()
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			lost := 0
			for _, th := range burst {
				if !th.Done() {
					lost++
				}
			}
			t.Fatalf("round %d: %d burst threads never ran, killed spinner done=%v", round, lost, spinner.Done())
		}
		for i, th := range burst {
			if th.Result().I != 100 {
				t.Fatalf("round %d: burst thread %d returned %d", round, i, th.Result().I)
			}
		}
		if spinner.Failure() == nil {
			t.Fatalf("round %d: the killed isolate's thread returned %d", round, spinner.Result().I)
		}
		vm.Shutdown()
		if res := run.Wait(); !res.Shutdown || keeper.Done() {
			t.Fatalf("round %d: run ended with %+v, keeper done=%v", round, res, keeper.Done())
		}
	}
}
