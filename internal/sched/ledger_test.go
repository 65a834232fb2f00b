package sched_test

import (
	"fmt"
	"testing"

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
