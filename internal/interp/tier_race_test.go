package interp_test

import (
	"fmt"
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

// This file stress-tests the closure tier's publication under -race: one
// set of method bodies shared by every shard (its classes live in a
// registry loader owned by no isolate, so calls do not migrate and all
// workers execute the same bytecode.Code), first invoked by several workers
// at once, and an admin goroutine storming exact collections, incremental
// cycle starts, interrupts and a mid-run kill. The contended surfaces: the
// preparation race (every racer compiles a form with its closure program,
// the first CAS publishes, the losers adopt the winner), per-frame
// adoption of the published program, and deopt interleaving with
// stop-the-world phases.

const (
	tierRaceIsolates = 8
	tierRaceIters    = 1500
)

// tierRaceClasses builds the shared bundle: helper(x) = x*5 - 7,
// spin(n) = n iterations of foldable arithmetic through helper, and
// run(n) = spin(n), the threads' entry (a spawn prepares its entry method
// on the host, so spin and helper are first invoked on the workers). check
// is the native both call to inspect the frame that called it.
func tierRaceClasses(check interp.NativeFunc) []*classfile.Class {
	shared := classfile.NewClass("tier/Shared").
		NativeMethod("check", "(I)I", classfile.FlagStatic, check).
		Method("helper", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).InvokeStatic("tier/Shared", "check", "(I)I").
				Const(5).IMul().Const(7).ISub().IReturn()
		}).
		Method("spin", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// Locals: 0 n, 1 acc, 2 i. The loop body compiles into four
			// micros with their loads, constants and stores folded in, and
			// the iinc+goto final chains back into the loop head.
			a.ILoad(0).InvokeStatic("tier/Shared", "check", "(I)I").IStore(0)
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ILoad(1).Const(3).IAdd().IStore(1)
			a.ILoad(1).ILoad(2).IXor().IStore(1)
			a.ILoad(1).InvokeStatic("tier/Shared", "helper", "(I)I").IStore(1)
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).InvokeStatic("tier/Shared", "spin", "(I)I").IReturn()
		}).MustBuild()
	return []*classfile.Class{shared}
}

// tierRaceExpected is the Go-side oracle of spin(n).
func tierRaceExpected(n int64) int64 {
	var acc int64
	for i := int64(0); i < n; i++ {
		acc += 3
		acc ^= i
		acc = acc*5 - 7
	}
	return acc
}

// TestPreparationRaceStress: eight shards first-invoke spin and helper on
// four workers beside the admin storm. Every frame of either method — each
// checked from inside, by the native it calls — must run the one closure
// program published with the method's prepared form, and the results must
// match the Go oracle.
func TestPreparationRaceStress(t *testing.T) {
	want := tierRaceExpected(tierRaceIters)
	for round := 0; round < 2; round++ {
		vm := interp.NewVM(interp.Options{
			Mode:               core.ModeIsolated,
			HeapLimit:          256 << 10,
			GCThresholdPercent: 50,
			GCMarkStride:       64,
		})
		syslib.MustInstall(vm)
		var frames atomic.Int64
		check := func(vm *interp.VM, th *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			m, program := interp.TopFrameForTest(th)
			if program == nil || program != m.Code.Prepared().Closure {
				t.Errorf("round %d: a frame of %s runs %p, the published program is %p",
					round, m.QualifiedName(), program, m.Code.Prepared().Closure)
			}
			frames.Add(1)
			return interp.NativeResult{Control: interp.NativeDone, Value: args[0]}, nil
		}
		sharedLoader := vm.Registry().NewLoader("tier-shared")
		if err := sharedLoader.DefineAll(tierRaceClasses(check)); err != nil {
			t.Fatal(err)
		}
		c, err := sharedLoader.Lookup("tier/Shared")
		if err != nil {
			t.Fatal(err)
		}
		run, err := c.LookupMethod("run", "(I)I")
		if err != nil {
			t.Fatal(err)
		}
		spin, err := c.LookupMethod("spin", "(I)I")
		if err != nil {
			t.Fatal(err)
		}

		var threads []*interp.Thread
		var victim *core.Isolate
		for k := 0; k < tierRaceIsolates; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("tierbundle%d", k))
			if err != nil {
				t.Fatal(err)
			}
			if k == 1 {
				victim = iso
			}
			th, err := vm.SpawnThread(fmt.Sprintf("tier%d", k), iso, run,
				[]heap.Value{heap.IntVal(tierRaceIters)})
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
		if spin.Code.Prepared() != nil {
			t.Fatal("spin was prepared before the workers started")
		}

		running := sched.Start(vm, sched.Config{Workers: 4})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			killed := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					vm.CollectGarbage(nil)
				case 1:
					vm.StartIncrementalCycle()
				default:
					for _, th := range threads {
						_ = vm.InterruptThread(th)
					}
				}
				if i == 4 && !killed {
					killed = true
					if err := vm.KillIsolate(nil, victim); err != nil {
						t.Errorf("kill: %v", err)
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		res := running.Wait()
		close(stop)
		wg.Wait()
		if !res.AllDone {
			t.Fatalf("round %d: run did not finish: %+v", round, res)
		}

		for k, th := range threads {
			if k == 1 {
				continue // the victim died with its isolate
			}
			if th.Failure() != nil || th.Err() != nil {
				t.Fatalf("round %d: thread %d failed: %v / %v",
					round, k, th.FailureString(), th.Err())
			}
			if got := th.Result().I; got != want {
				t.Fatalf("round %d: thread %d = %d, want %d", round, k, got, want)
			}
		}
		if n := frames.Load(); n < (tierRaceIsolates-1)*tierRaceIters {
			t.Fatalf("round %d: %d frames checked, want at least %d", round, n, (tierRaceIsolates-1)*tierRaceIters)
		}

		// The published program carries folded micros and chain links: the
		// storm ran against them.
		requireLiveChains(t, spin)
	}
}

// requireLiveChains fails unless m's prepared form carries a closure
// program that holds micros covering more than one instruction and blocks
// ending in an inline transfer, i.e. the code ran against folded operands
// and chained steps.
func requireLiveChains(t *testing.T, m *classfile.Method) {
	t.Helper()
	p := m.Code.Prepared()
	if p == nil {
		t.Fatalf("%s: quickening missing", m.QualifiedName())
	}
	switch folded, links, ok := interp.ClosureShapeForTest(p); {
	case !ok:
		t.Fatalf("%s carries no closure program", m.QualifiedName())
	case folded == 0 || links == 0:
		t.Fatalf("%s: closure program has %d folded micros and %d chain links", m.QualifiedName(), folded, links)
	}
}

// killStormClasses builds a counter class (static state) and a driver
// whose run(I)I spins n iterations bumping the static counter through an
// invokevirtual site — statics, virtual dispatch and a loop that compiles
// to folded micros and chained blocks.
func killStormClasses() []*classfile.Class {
	init := func(a *bytecode.Assembler) {
		a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
	}
	counter := classfile.NewClass("rq/Counter").
		StaticField("total", classfile.KindInt).
		Method(classfile.InitName, "()V", 0, init).
		Method("bump", "(I)I", 0, func(a *bytecode.Assembler) {
			a.GetStatic("rq/Counter", "total").ILoad(1).IAdd().
				Dup().PutStatic("rq/Counter", "total").IReturn()
		}).MustBuild()
	driver := classfile.NewClass("rq/Driver").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.New("rq/Counter").Dup().
				InvokeSpecial("rq/Counter", classfile.InitName, "()V").AStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ALoad(1).Const(1).InvokeVirtual("rq/Counter", "bump", "(I)I").Pop()
			a.IInc(2, 1).Goto("loop")
			a.Label("done").GetStatic("rq/Counter", "total").IReturn()
		}).MustBuild()
	return []*classfile.Class{counter, driver}
}

// TestKillStormAgainstHotTier kills an isolate while its loop of closure
// blocks (folded micros and chains live) is mid-flight at an arbitrary
// quantum boundary, and proves termination semantics are unchanged by the
// closure tier: the victim thread dies with StoppedIsolateException-style
// failure (killed code never runs again), while a second isolate's
// identical hot loop still computes the exact total afterwards.
func TestKillStormAgainstHotTier(t *testing.T) {
	for _, budget := range []int64{7, 101, 1009} {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
		syslib.MustInstall(vm)
		if _, err := vm.NewIsolate("platform"); err != nil { // Isolate0: unkillable
			t.Fatal(err)
		}
		victimIso, err := vm.NewIsolate("victim")
		if err != nil {
			t.Fatal(err)
		}
		if err := victimIso.Loader().DefineAll(killStormClasses()); err != nil {
			t.Fatal(err)
		}
		c, _ := victimIso.Loader().Lookup("rq/Driver")
		m, _ := c.LookupMethod("run", "(I)I")
		th, err := vm.SpawnThread("victim", victimIso, m, []heap.Value{heap.IntVal(100000)})
		if err != nil {
			t.Fatal(err)
		}
		vm.RunUntil(th, budget) // park the hot loop mid-flight
		if th.Done() {
			t.Fatalf("budget %d: victim finished before the kill", budget)
		}
		requireLiveChains(t, m)
		if err := vm.KillIsolate(nil, victimIso); err != nil {
			t.Fatalf("budget %d: kill: %v", budget, err)
		}
		res := vm.RunUntil(th, 0)
		if !th.Done() {
			t.Fatalf("budget %d: victim still live after kill: %+v", budget, res)
		}
		if th.Failure() == nil && th.Err() == nil {
			t.Fatalf("budget %d: killed thread finished cleanly with %d", budget, th.Result().I)
		}

		// A fresh isolate's hot loop is unaffected by the carnage.
		iso2, err := vm.NewIsolate("survivor")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso2.Loader().DefineAll(killStormClasses()); err != nil {
			t.Fatal(err)
		}
		c2, _ := iso2.Loader().Lookup("rq/Driver")
		m2, _ := c2.LookupMethod("run", "(I)I")
		v, th2, err := vm.CallRoot(iso2, m2, []heap.Value{heap.IntVal(123)}, 1_000_000)
		if err != nil || th2.Failure() != nil {
			t.Fatalf("budget %d: survivor run: %v / %v", budget, err, th2.FailureString())
		}
		if v.I != 123 {
			t.Fatalf("budget %d: survivor total = %d, want 123", budget, v.I)
		}
	}
}

// endlessLoopClass is spin/Main.spin()V: the tightest compiled loop there is —
// `iinc 0 1; goto` — one block that is nothing but its inline final and
// chains into itself for as long as a step may run.
func endlessLoopClass() *classfile.Class {
	return classfile.NewClass("spin/Main").
		Method("spin", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ReserveLocals(1)
			a.Label("loop").IInc(0, 1).Goto("loop")
		}).MustBuild()
}

// TestChainPollLatency pins what bounds the engines' poll latency. The
// engine loops poll stop-the-world, kill, shutdown and target completion
// once per step, so a request waits for at most one step: with the
// quantum at 1 000 000 instructions, the in-code chain cap — not the
// quantum — must bound what a step retires. The first half measures it
// in instructions, step by step; the second drives a real 1-worker
// scheduler and requires a collection's world-stop, an isolate kill and a
// platform shutdown to take effect on a thread that never leaves its
// compiled loop.
func TestChainPollLatency(t *testing.T) {
	const quantum = 1_000_000
	newVM := func() (*interp.VM, *core.Isolate) {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, Quantum: quantum})
		syslib.MustInstall(vm)
		if _, err := vm.NewIsolate("platform"); err != nil { // Isolate0: unkillable
			t.Fatal(err)
		}
		iso, err := vm.NewIsolate("spinner")
		if err != nil {
			t.Fatal(err)
		}
		return vm, iso
	}
	spawn := func(vm *interp.VM, iso *core.Isolate, class *classfile.Class, method, desc string, args []heap.Value) *interp.Thread {
		if err := iso.Loader().Define(class); err != nil {
			t.Fatal(err)
		}
		m, err := class.LookupMethod(method, desc)
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(method, iso, m, args)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}

	// Instructions between consecutive polls: the self-chaining final, and
	// a loop whose chains run through taken branches and gotos.
	rules := classfile.NewClass("chain/Main").
		Method("run", "(ILjava/lang/Object;)I", classfile.FlagStatic, chainPrograms()["rules"]).MustBuild()
	for _, prog := range []struct {
		class        *classfile.Class
		method, desc string
		args         []heap.Value
	}{
		{endlessLoopClass(), "spin", "()V", nil},
		{rules, "run", "(ILjava/lang/Object;)I", []heap.Value{heap.IntVal(1 << 40), heap.Null()}},
	} {
		vm, iso := newVM()
		th := spawn(vm, iso, prog.class, prog.method, prog.desc, prog.args)
		sizes, err := vm.StepSizesForTest(th, quantum, 200)
		if err != nil || len(sizes) != 200 {
			t.Fatalf("%s: %d steps, %v", prog.method, len(sizes), err)
		}
		longest := int64(0)
		for _, n := range sizes {
			longest = max(longest, n)
		}
		if longest > interp.MaxStepInstructionsForTest {
			t.Fatalf("%s: a step retired %d instructions, the chain cap is %d", prog.method, longest, interp.MaxStepInstructionsForTest)
		}
		if longest <= interp.MaxStepInstructionsForTest/2 {
			t.Fatalf("%s: the longest of 200 steps retired %d instructions: chains are not live", prog.method, longest)
		}
	}

	// The same loop under a real scheduler, in two isolates (the second
	// keeps the run alive past the kill): every request must land.
	vm, iso := newVM()
	th := spawn(vm, iso, endlessLoopClass(), "spin", "()V", nil)
	iso2, err := vm.NewIsolate("spinner2")
	if err != nil {
		t.Fatal(err)
	}
	th2 := spawn(vm, iso2, endlessLoopClass(), "spin", "()V", nil)
	run := sched.Start(vm, sched.Config{Workers: 1})
	within := func(what string, fn func()) {
		t.Helper()
		finished := make(chan struct{})
		go func() { fn(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not take effect on the spinning threads", what)
		}
	}
	for i := 0; i < 5; i++ {
		within("stop-the-world collection", func() { vm.CollectGarbage(nil) })
	}
	within("kill", func() {
		if err := vm.KillIsolate(nil, iso); err != nil {
			t.Errorf("kill: %v", err)
		}
		for !th.Done() {
			time.Sleep(50 * time.Microsecond)
		}
	})
	if th.Failure() == nil && th.Err() == nil {
		t.Error("the killed spinner finished cleanly")
	}
	within("shutdown", func() {
		vm.Shutdown()
		if res := run.Wait(); !res.Shutdown {
			t.Errorf("run ended without observing the shutdown: %+v", res)
		}
	})
	if th2.Done() {
		t.Error("the surviving spinner finished: it has no exit")
	}
}
