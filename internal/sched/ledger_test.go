package sched_test

import (
	"fmt"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/workloads"
)

// TestRunLedgerFollowsAccounts: three caller bundles run Fig 1's and
// Table 1's loops against one callee bundle on two workers. The calls are
// cross-bundle leaves, inlined into the callers' blocks and charged to the
// callee, which has no thread of its own. Each per-isolate row of the run
// must be the growth of that isolate's instruction account — the callee's
// row included —, and the rows must sum to the run's instructions.
func TestRunLedgerFollowsAccounts(t *testing.T) {
	vm := newIsolatedVM(t, interp.Options{})
	callee, err := vm.NewIsolate("callee")
	if err != nil {
		t.Fatal(err)
	}
	if err := callee.Loader().DefineAll(workloads.ServiceClasses()); err != nil {
		t.Fatal(err)
	}
	svcClass, err := callee.Loader().Lookup(workloads.ServiceClassName)
	if err != nil {
		t.Fatal(err)
	}
	isos := []*core.Isolate{callee}
	var threads []*interp.Thread
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("caller%d", i)
		loader := vm.Registry().NewLoader(name)
		loader.AddDelegate(callee.Loader())
		iso, err := vm.World().NewIsolate(name, loader)
		if err != nil {
			t.Fatal(err)
		}
		if err := loader.DefineAll(workloads.CallerClasses()); err != nil {
			t.Fatal(err)
		}
		drv, err := loader.Lookup(workloads.CallerClassName)
		if err != nil {
			t.Fatal(err)
		}
		// Each caller its own service object: the workers run them at once.
		callRoot(t, vm, iso, drv, "bind", callRoot(t, vm, callee, svcClass, "make"))
		entry := workloads.MicroDriverMethod
		if i%2 == 1 {
			entry = workloads.DragDriverMethod
		}
		m, err := drv.LookupMethod(entry, workloads.MicroDriverDesc)
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(name, iso, m, []heap.Value{heap.IntVal(int64(20_000 + 1000*i))})
		if err != nil {
			t.Fatal(err)
		}
		isos, threads = append(isos, iso), append(threads, th)
	}
	before := make(map[string]int64)
	for _, iso := range vm.World().Isolates() {
		before[iso.Name()] = iso.Account().Instructions.Load()
	}
	res := sched.RunConfig(vm, sched.Config{Workers: 2})
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	for _, th := range threads {
		if th.Failure() != nil || th.Err() != nil {
			t.Fatalf("%s failed: %s %v", th.Name(), th.FailureString(), th.Err())
		}
	}
	sum := res.FreedIsolates.Instructions
	rows := make(map[string]int64)
	for _, ir := range res.PerIsolate {
		sum += ir.Instructions
		rows[ir.Name] = ir.Instructions
	}
	for _, iso := range isos {
		if got, want := rows[iso.Name()], iso.Account().Instructions.Load()-before[iso.Name()]; got != want || got == 0 {
			t.Errorf("%s: run row %d, account grew by %d", iso.Name(), got, want)
		}
	}
	if sum != res.Instructions {
		t.Errorf("rows sum to %d, the run retired %d", sum, res.Instructions)
	}
}

// TestRunLedgerCountsIsolatesMadeDuringRun: a caller loops over two leaf
// calls, which run inlined into its blocks, on two workers; its native
// makes isolates mid-run. At round 4 it binds the second leaf's
// isolate-less loader to a new isolate (NewIsolate), at round 8 it kills,
// collects and frees the first leaf's isolate and rebinds its loader to a
// new one, at round 12 it clones a warmed template and spawns a thread
// into the clone. Each new isolate must have a row from its creation: the
// two leaves' isolates although no thread ever enters them, the clone's
// without the account it was seeded with. The rows plus the freed
// isolate's share must sum to the run's instructions.
func TestRunLedgerCountsIsolatesMadeDuringRun(t *testing.T) {
	vm := newIsolatedVM(t, interp.Options{})
	leaf := func(name string) *classfile.Class {
		return classfile.NewClass(name).
			Method("work", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
				a.ILoad(0).Const(3).IMul().Const(1).IAdd().IReturn()
			}).MustBuild()
	}
	if _, err := vm.NewIsolate("runtime"); err != nil { // Isolate0: not killable
		t.Fatal(err)
	}
	callee, err := vm.NewIsolate("callee")
	if err != nil {
		t.Fatal(err)
	}
	if err := callee.Loader().Define(leaf("lg/Old")); err != nil {
		t.Fatal(err)
	}
	freshLoader := vm.Registry().NewLoader("fresh")
	if err := freshLoader.Define(leaf("lg/New")); err != nil {
		t.Fatal(err)
	}

	// The template: an isolate-less loader whose <clinit> and serve a
	// warmer runs once before the capture, so the clones' seed is not zero.
	tpl := classfile.NewClass("lg/Tpl").
		StaticField("base", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").ILoad(0).Const(500).IfICmpGe("done")
			a.GetStatic("lg/Tpl", "base").ILoad(0).IAdd().PutStatic("lg/Tpl", "base")
			a.IInc(0, 1).Goto("loop")
			a.Label("done").Return()
		}).
		Method("serve", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).Const(300).IfICmpGe("done")
			a.IInc(0, 1).IInc(1, 1).Goto("loop")
			a.Label("done").ILoad(0).GetStatic("lg/Tpl", "base").IAdd().IReturn()
		}).MustBuild()
	tplLoader := vm.Registry().NewLoader("tpl")
	if err := tplLoader.Define(tpl); err != nil {
		t.Fatal(err)
	}
	warmLoader := vm.Registry().NewLoader("warmer")
	warmLoader.AddDelegate(tplLoader)
	warmer, err := vm.World().NewIsolate("warmer", warmLoader)
	if err != nil {
		t.Fatal(err)
	}
	callRoot(t, vm, warmer, tpl, "serve", heap.IntVal(1))
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	seed := warmer.Account().Instructions.Load() // what the clones are seeded with
	serveM, err := tpl.LookupMethod("serve", "(I)I")
	if err != nil {
		t.Fatal(err)
	}

	made := make(map[string]*core.Isolate)
	var spawned *interp.Thread
	round := func(vm *interp.VM, th *interp.Thread, recv heap.Value, a []heap.Value) (interp.NativeResult, error) {
		var err error
		switch a[0].I >> 6 {
		case 4:
			made["fresh"], err = vm.World().NewIsolate("fresh", freshLoader)
		case 8:
			if err = vm.KillIsolate(nil, callee); err != nil {
				break
			}
			if vm.CollectGarbage(nil); !callee.Disposed() {
				return interp.NativeResult{}, fmt.Errorf("the killed callee is not disposed")
			}
			if err = vm.FreeIsolate(callee); err == nil {
				made["reborn"], err = vm.World().NewIsolate("reborn", callee.Loader())
			}
		case 12:
			if made["clone"], err = vm.CloneIsolate(snap, "clone"); err == nil {
				spawned, err = vm.SpawnThread("clone-serve", made["clone"], serveM, []heap.Value{heap.IntVal(5)})
			}
		}
		if err != nil {
			return interp.NativeResult{}, err
		}
		return interp.NativeVoid()
	}
	main := classfile.NewClass("lg/Main").
		NativeMethod("round", "(I)V", classfile.FlagStatic, interp.NativeFunc(round)).
		Method("run", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			// locals: 0 n, 1 acc, 2 i
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ILoad(1).ILoad(2).InvokeStatic("lg/Old", "work", "(I)I").IAdd()
			a.ILoad(2).InvokeStatic("lg/New", "work", "(I)I").IAdd().IStore(1)
			a.ILoad(2).Const(63).IAnd().Const(63).IfICmpNe("next")
			a.ILoad(2).InvokeStatic("lg/Main", "round", "(I)V")
			a.Label("next").IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()
	caller, err := vm.NewIsolate("caller")
	if err != nil {
		t.Fatal(err)
	}
	caller.Loader().AddDelegate(callee.Loader())
	caller.Loader().AddDelegate(freshLoader)
	if err := caller.Loader().Define(main); err != nil {
		t.Fatal(err)
	}
	run, err := main.LookupMethod("run", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	th, err := vm.SpawnThread("run", caller, run, []heap.Value{heap.IntVal(64 * 16)})
	if err != nil {
		t.Fatal(err)
	}
	res := sched.RunConfig(vm, sched.Config{Workers: 2})
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	for _, th := range []*interp.Thread{th, spawned} {
		if th == nil {
			t.Fatal("the native spawned no thread into the clone")
		}
		if th.Failure() != nil || th.Err() != nil {
			t.Fatalf("%s failed: %s %v", th.Name(), th.FailureString(), th.Err())
		}
	}
	rows := make(map[string]int64)
	sum := res.FreedIsolates.Instructions
	for _, ir := range res.PerIsolate {
		sum += ir.Instructions
		rows[ir.Name] = ir.Instructions
	}
	for name, iso := range made {
		want := iso.Account().Instructions.Load()
		if name == "clone" {
			want -= seed
		}
		if got, ok := rows[name]; !ok || got != want || got == 0 {
			t.Errorf("%s: run row %d (present %v), account grew by %d since its creation", name, got, ok, want)
		}
	}
	if res.FreedIsolates.Count != 1 {
		t.Errorf("%d isolates freed, want the callee", res.FreedIsolates.Count)
	}
	if sum != res.Instructions {
		t.Errorf("rows and the freed share sum to %d, the run retired %d", sum, res.Instructions)
	}
}

// callRoot calls c's static method name in iso and returns its result.
func callRoot(t *testing.T, vm *interp.VM, iso *core.Isolate, c *classfile.Class, name string, args ...heap.Value) heap.Value {
	t.Helper()
	for _, m := range c.Methods {
		if m.Name == name {
			v, th, err := vm.CallRoot(iso, m, args, 1_000_000)
			if err != nil || th.Failure() != nil {
				t.Fatalf("%s: %v %s", name, err, th.FailureString())
			}
			return v
		}
	}
	t.Fatalf("no method %s in %s", name, c.Name)
	return heap.Value{}
}
