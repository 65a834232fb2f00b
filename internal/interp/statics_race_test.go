package interp_test

import (
	"fmt"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

const (
	pmAcc    = "pm/Acc"
	pmClones = 8
	pmIters  = 3000
)

// pmClasses builds pm/Acc: run(k, n) adds i*k to the static sum for i in
// [0, n) and returns it, through getstatic/putstatic micros in a loop.
func pmClasses() []*classfile.Class {
	return []*classfile.Class{classfile.NewClass(pmAcc).
		StaticField("sum", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(1000).PutStatic(pmAcc, "sum").Return()
		}).
		Method("run", "(II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(1).IfICmpGe("done")
			a.GetStatic(pmAcc, "sum").ILoad(2).ILoad(0).IMul().IAdd().PutStatic(pmAcc, "sum")
			a.IInc(2, 1).Goto("loop")
			a.Label("done").GetStatic(pmAcc, "sum").IReturn()
		}).MustBuild()}
}

// TestStaticMicrosPerIsolate: eight clones of one warmed template run the
// same compiled static loop on two workers, twice, and each clone's
// statics stay its own — every result and every clone's final mirror is
// the exact closed form for that clone, and the template's mirror is
// untouched. The template is Isolate0, so a micro that indexed the mirror
// row at 0 instead of at the current isolate would find an initialized
// mirror there and share it.
func TestStaticMicrosPerIsolate(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	tl := vm.Registry().NewLoader("pm-template")
	if err := tl.DefineAll(pmClasses()); err != nil {
		t.Fatal(err)
	}
	tpl, err := vm.NewIsolate("template")
	if err != nil {
		t.Fatal(err)
	}
	if vm.World().Isolate0() != tpl {
		t.Fatal("the template is not Isolate0")
	}
	tpl.Loader().AddDelegate(tl)
	acc, err := tpl.Loader().Lookup(pmAcc)
	if err != nil {
		t.Fatal(err)
	}
	run := findMethod(t, acc, "run")
	// closed is sum after run(k, n) from sum.
	closed := func(sum, k, n int64) int64 { return sum + k*n*(n-1)/2 }
	warm := closed(1000, 1, 10)
	if v := callStatic(t, vm, tpl, acc, "run", heap.IntVal(1), heap.IntVal(10)).I; v != warm {
		t.Fatalf("template warm-up = %d, want %d", v, warm)
	}
	if folded, _, ok := interp.ClosureShapeForTest(run.Code.Prepared()); !ok || folded == 0 {
		t.Fatal("run carries no compiled program with folded statics")
	}
	snap, err := vm.CaptureSnapshot(tpl, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	clones := make([]*core.Isolate, pmClones)
	for k := range clones {
		if clones[k], err = vm.CloneIsolate(snap, fmt.Sprintf("clone%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]int64, pmClones)
	for k := range want {
		want[k] = warm
	}
	for round := 0; round < 2; round++ {
		threads := make([]*interp.Thread, pmClones)
		for k, iso := range clones {
			if threads[k], err = vm.SpawnThread(fmt.Sprintf("pm%d", k), iso, run,
				[]heap.Value{heap.IntVal(int64(k + 2)), heap.IntVal(pmIters)}); err != nil {
				t.Fatal(err)
			}
		}
		if res := sched.Run(vm, 2, 0); !res.AllDone {
			t.Fatalf("round %d: %+v", round, res)
		}
		for k, th := range threads {
			want[k] = closed(want[k], int64(k+2), pmIters)
			if th.Failure() != nil || th.Err() != nil {
				t.Fatalf("round %d clone%d: %s %v", round, k, th.FailureString(), th.Err())
			}
			if got := th.Result().I; got != want[k] {
				t.Fatalf("round %d clone%d: run = %d, want %d", round, k, got, want[k])
			}
		}
	}
	for k, iso := range clones {
		if got := vm.World().MirrorIfPresent(acc, iso).Statics[0].I; got != want[k] {
			t.Fatalf("clone%d: sum %d, want %d", k, got, want[k])
		}
	}
	if got := vm.World().MirrorIfPresent(acc, tpl).Statics[0].I; got != warm {
		t.Fatalf("template: sum %d, want %d", got, warm)
	}
}
