package interp_test

import (
	"fmt"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

// This file races class linking against virtual dispatch under -race.
// vr/Base and the loop that calls through it live in a loader owned by no
// isolate, so every shard executes the same two invokevirtual sites and
// reads the same Base.VTable. Each tenant thread first runs a native that
// defines the tenant's own subclass of Base ON THE WORKER executing it —
// linking copies Base's table into the new class while other workers
// dispatch through Base's slots — then hammers the shared sites with an
// instance of that subclass. Linking never writes a published table, and
// the guard data (VSlot, VRoot) of a class is complete before the class
// is reachable; the race detector checks both claims.

const (
	vtRaceTenants = 8
	vtRaceIters   = 3000
)

// vtRaceShared builds Base and the shared loop: run(recv, n) folds
// recv.f and recv.g over an accumulator.
func vtRaceShared() []*classfile.Class {
	return []*classfile.Class{
		classfile.NewClass("vr/Base").
			Method(classfile.InitName, "()V", 0, vtInit(classfile.ObjectClassName)).
			Method("f", "(I)I", 0, vtConst(1)).
			Method("g", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(2).IMul().Const(0xFFFF).IAnd().IReturn()
			}).MustBuild(),
		classfile.NewClass("vr/Hammer").
			Method("run", "(Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				// locals: 0 recv, 1 n, 2 acc, 3 i
				a.Const(0).IStore(2)
				a.Const(0).IStore(3)
				a.Label("loop").ILoad(3).ILoad(1).IfICmpGe("done")
				a.ALoad(0).ILoad(2).InvokeVirtual("vr/Base", "f", "(I)I").IStore(2)
				a.ALoad(0).ILoad(2).InvokeVirtual("vr/Base", "g", "(I)I").IStore(2)
				a.IInc(3, 1).Goto("loop")
				a.Label("done").ILoad(2).IReturn()
			}).MustBuild(),
	}
}

// vtRaceTenant builds tenant k's entry class. Its link native defines
// vr/Sub (f overridden, g inherited, one new method so the table grows)
// in the tenant's loader from whichever worker runs the thread.
func vtRaceTenant(k int, l *loader.Loader) *classfile.Class {
	link := interp.NativeFunc(func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
		sub := classfile.NewClass("vr/Sub").Super("vr/Base").
			Method(classfile.InitName, "()V", 0, vtInit("vr/Base")).
			Method("f", "(I)I", 0, vtConst(int64(k+2))).
			Method("extra", "(I)I", 0, vtConst(0)).MustBuild()
		return interp.NativeResult{Control: interp.NativeDone}, l.Define(sub)
	})
	return classfile.NewClass("vr/Main").
		NativeMethod("link", "()V", classfile.FlagStatic, link).
		Method("go", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.InvokeStatic("vr/Main", "link", "()V")
			a.New("vr/Sub").Dup().InvokeSpecial("vr/Sub", classfile.InitName, "()V")
			a.ILoad(0).InvokeStatic("vr/Hammer", "run", "(Ljava/lang/Object;I)I").IReturn()
		}).MustBuild()
}

func vtRaceExpected(k int, n int64) int64 {
	var acc int64
	for i := int64(0); i < n; i++ {
		acc += int64(k + 2)
		acc = acc * 2 & 0xFFFF
	}
	return acc
}

func TestVTableDispatchWhileSubclassesLink(t *testing.T) {
	for round := 0; round < 3; round++ {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
		syslib.MustInstall(vm)
		shared := vm.Registry().NewLoader("vr-shared")
		if err := shared.DefineAll(vtRaceShared()); err != nil {
			t.Fatal(err)
		}
		var threads []*interp.Thread
		for k := 0; k < vtRaceTenants; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("vr%d", k))
			if err != nil {
				t.Fatal(err)
			}
			iso.Loader().AddDelegate(shared)
			main := vtRaceTenant(k, iso.Loader())
			if err := iso.Loader().Define(main); err != nil {
				t.Fatal(err)
			}
			m, err := main.LookupMethod("go", "(I)I")
			if err != nil {
				t.Fatal(err)
			}
			th, err := vm.SpawnThread(fmt.Sprintf("vr%d", k), iso, m, []heap.Value{heap.IntVal(vtRaceIters)})
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
		if res := sched.Run(vm, 4, 0); !res.AllDone {
			t.Fatalf("round %d: run did not finish: %+v", round, res)
		}
		for k, th := range threads {
			if th.Err() != nil || th.Failure() != nil {
				t.Fatalf("round %d tenant %d: %v / %s", round, k, th.Err(), th.FailureString())
			}
			if want := vtRaceExpected(k, vtRaceIters); th.Result().I != want {
				t.Fatalf("round %d tenant %d: result %d, want %d", round, k, th.Result().I, want)
			}
		}
	}
}
