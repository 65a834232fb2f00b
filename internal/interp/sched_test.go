package interp_test

import (
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// spinClass builds a runnable whose run() executes roughly n instructions
// before finishing, counting completed laps into a static.
func spinClass(name string) *classfile.Class {
	return classfile.NewClass(name).
		StaticField("laps", classfile.KindInt).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		Method("run", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).Const(100000).IfICmpGe("done")
			a.IInc(1, 1)
			a.GetStatic(name, "laps").Const(1).IAdd().PutStatic(name, "laps")
			a.Goto("loop")
			a.Label("done")
			a.Return()
		}).MustBuild()
}

// TestSchedulerFairness: two identical compute threads receive roughly
// equal instruction shares under round-robin quanta.
func TestSchedulerFairness(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, Quantum: 500})
	syslib.MustInstall(vm)
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	isoA, err := vm.NewIsolate("a")
	if err != nil {
		t.Fatal(err)
	}
	isoB, err := vm.NewIsolate("b")
	if err != nil {
		t.Fatal(err)
	}
	classA := spinClass("fair/A")
	classB := spinClass("fair/B")
	if err := isoA.Loader().Define(classA); err != nil {
		t.Fatal(err)
	}
	if err := isoB.Loader().Define(classB); err != nil {
		t.Fatal(err)
	}
	spawn := func(iso *core.Isolate, c *classfile.Class) {
		m, err := c.LookupMethod("run", "()V")
		if err != nil {
			t.Fatal(err)
		}
		obj, err := vm.AllocObjectIn(nil, c, iso)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.SpawnThread("spin", iso, m, []heap.Value{heap.RefVal(obj)}); err != nil {
			t.Fatal(err)
		}
	}
	spawn(isoA, classA)
	spawn(isoB, classB)
	vm.Run(400_000) // neither thread can finish within this budget
	a := isoA.Account().Instructions.Load()
	b := isoB.Account().Instructions.Load()
	if a == 0 || b == 0 {
		t.Fatalf("a thread starved: a=%d b=%d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair split: a=%d b=%d (ratio %.2f)", a, b, ratio)
	}
}

// TestVirtualClockSleepOrdering: threads sleeping different durations
// wake in deadline order, and the clock jumps when everyone sleeps.
func TestVirtualClockSleepOrdering(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	const cn = "clock/Sleeper"
	c := classfile.NewClass(cn).
		StaticField("order", classfile.KindRef).
		StaticField("next", classfile.KindInt).
		Field("ticks", classfile.KindInt).
		Field("tag", classfile.KindInt).
		Method(classfile.InitName, "(II)V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V")
			a.ALoad(0).ILoad(1).PutField(cn, "ticks")
			a.ALoad(0).ILoad(2).PutField(cn, "tag")
			a.Return()
		}).
		Method("run", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).GetField(cn, "ticks").InvokeStatic("java/lang/Thread", "sleep", "(I)V")
			// order[next++] = tag
			a.GetStatic(cn, "order").GetStatic(cn, "next").ALoad(0).GetField(cn, "tag").
				InvokeStatic("java/lang/Integer", "valueOf", "(I)Ljava/lang/Integer;").ArrayStore()
			a.GetStatic(cn, "next").Const(1).IAdd().PutStatic(cn, "next")
			a.Return()
		}).
		Method("setup", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(3).NewArray("").PutStatic(cn, "order")
			a.Return()
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	setup, _ := c.LookupMethod("setup", "()V")
	if _, th, err := vm.CallRoot(iso, setup, nil, 100_000); err != nil || th.Failure() != nil {
		t.Fatal(err)
	}
	runM, _ := c.LookupMethod("run", "()V")
	// Spawn with deliberately shuffled durations: tags 0,1,2 sleep
	// 30000, 10000, 20000 ticks -> wake order 1, 2, 0.
	durations := []int64{30000, 10000, 20000}
	for tag, d := range durations {
		obj, err := vm.AllocObjectIn(nil, c, iso)
		if err != nil {
			t.Fatal(err)
		}
		fTicks, _ := c.LookupField("ticks")
		fTag, _ := c.LookupField("tag")
		obj.Elems[fTicks.Slot] = heap.IntVal(d)
		obj.Elems[fTag.Slot] = heap.IntVal(int64(tag))
		if _, err := vm.SpawnThread("sleeper", iso, runM, []heap.Value{heap.RefVal(obj)}); err != nil {
			t.Fatal(err)
		}
	}
	res := vm.Run(0)
	if !res.AllDone {
		t.Fatalf("run = %+v", res)
	}
	mirror := vm.World().Mirror(c, iso)
	fOrder, _ := c.LookupStaticField("order")
	order := mirror.Statics[fOrder.Slot].R
	want := []int64{1, 2, 0}
	for i, w := range want {
		boxed := order.Elems[i].R
		fVal, _ := boxed.Class.LookupField("value")
		if got := boxed.Elems[fVal.Slot].I; got != w {
			t.Fatalf("wake order[%d] = %d, want %d", i, got, w)
		}
	}
	if vm.Clock() < 30000 {
		t.Fatalf("clock = %d, must have advanced past the longest sleep", vm.Clock())
	}
}

// TestRunBudgetExhaustion: the budget is the freeze detector — an
// infinite loop exhausts it without hanging the host.
func TestRunBudgetExhaustion(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("b/Spin").
		Method("spin", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Label("loop")
			a.Goto("loop")
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("spin", "()V")
	if _, err := vm.SpawnThread("spin", iso, m, nil); err != nil {
		t.Fatal(err)
	}
	res := vm.Run(50_000)
	if !res.BudgetExhausted || res.AllDone || res.Deadlocked {
		t.Fatalf("res = %+v", res)
	}
	if res.Instructions != 50_000 {
		t.Fatalf("executed %d, want exactly the budget", res.Instructions)
	}
}

// TestShutdownStopsScheduler: System.exit from Isolate0 ends the run.
func TestShutdownStopsScheduler(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main") // Isolate0: exit permitted
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("s/Exit").
		Method("bye", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).InvokeStatic("java/lang/System", "exit", "(I)V")
			a.Label("loop")
			a.Goto("loop") // never reached
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("bye", "()V")
	if _, err := vm.SpawnThread("exit", iso, m, nil); err != nil {
		t.Fatal(err)
	}
	res := vm.Run(1_000_000)
	if !res.Shutdown {
		t.Fatalf("res = %+v", res)
	}
	if !vm.IsShutdown() {
		t.Fatal("vm must be shut down")
	}
}

// TestTimedWaitTimesOut: Object.waitTicks resumes after the deadline
// without a notify.
func TestTimedWaitTimesOut(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	const cn = "tw/Main"
	c := classfile.NewClass(cn).
		Method("main", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.New(classfile.ObjectClassName).Dup().
				InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").AStore(0)
			a.ALoad(0).MonitorEnter()
			a.ALoad(0).Const(500).InvokeVirtual(classfile.ObjectClassName, "waitTicks", "(I)V")
			a.ALoad(0).MonitorExit()
			a.Const(1).IReturn()
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("main", "()I")
	v, th, err := vm.CallRoot(iso, m, nil, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("%v / %s", err, th.FailureString())
	}
	if v.I != 1 {
		t.Fatalf("main = %d", v.I)
	}
}
