package interp_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// The classes of the allocation-micro tests: am/K has two fields and a
// <clinit> that counts its runs; am/Fin has a finalizer; am/Use holds the
// programs.
const (
	amK, amFin, amUse = "am/K", "am/Fin", "am/Use"
	// amRing is how many objects ring(n) keeps alive.
	amRing = 8
)

func amClasses() []*classfile.Class {
	static := classfile.FlagStatic
	k := classfile.NewClass(amK).
		Field("v", classfile.KindInt).
		Field("next", classfile.KindRef).
		StaticField("inits", classfile.KindInt).
		Method(classfile.ClinitName, "()V", static, func(a *bytecode.Assembler) {
			a.GetStatic(amK, "inits").Const(1).IAdd().PutStatic(amK, "inits").Return()
		}).MustBuild()
	use := classfile.NewClass(amUse).
		// first(x) = 2x, with a new of the uninitialized am/K in between.
		Method("first", "(I)I", static, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(2).New(amK).Pop().IMul().IReturn()
		}).
		// churn(n) allocates and drops n objects.
		Method("churn", "(I)I", static, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.New(amK).Pop()
			a.IInc(1, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).
		// arr(n) is the length of a fresh n-element array.
		Method("arr", "(I)I", static, func(a *bytecode.Assembler) {
			a.ILoad(0).NewArray("").ArrayLength().IReturn()
		}).
		Method("mk", "()Ljava/lang/Object;", static, func(a *bytecode.Assembler) {
			a.New(amK).AReturn()
		}).
		// ring(n) keeps the last amRing of n objects alive in an array;
		// each links to the one it evicted, whose own link is cut, and the
		// sum reads the evicted ones back through the links.
		Method("ring", "(I)I", static, func(a *bytecode.Assembler) {
			a.ReserveLocals(6)
			a.Const(amRing).NewArray(amK).AStore(1)
			a.Const(0).IStore(2).Const(0).IStore(3)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ALoad(1).ILoad(2).Const(amRing - 1).IAnd().ArrayLoad().AStore(5)
			a.New(amK).AStore(4)
			a.ALoad(4).ILoad(2).PutField(amK, "v")
			a.ALoad(4).ALoad(5).PutField(amK, "next")
			a.ALoad(1).ILoad(2).Const(amRing - 1).IAnd().ALoad(4).ArrayStore()
			a.ALoad(5).IfNull("skip")
			a.ALoad(5).Null().PutField(amK, "next")
			a.ILoad(3).ALoad(4).GetField(amK, "next").GetField(amK, "v").IAdd().Const(0xFFFFFF).IAnd().IStore(3)
			a.Label("skip").ILoad(2).Const(3).IAnd().NewArray("").Pop()
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(3).IReturn()
		}).
		// frag(n) is the oracle fragment: per iteration a finalizable
		// object dropped, an object with a field, an array of 0..7 slots
		// and, when the index is out of its bounds, a caught
		// ArrayIndexOutOfBoundsException whose message hash is mixed in;
		// the finalizers' count comes last.
		Method("frag", "(I)I", static, fragBody(false)).
		// boom(n) is frag whose last exception is not caught.
		Method("boom", "(I)I", static, fragBody(true)).
		MustBuild()
	return []*classfile.Class{k, finalizableClass(amFin, false), use}
}

// fragBody emits frag (uncaught=false) or boom: locals 0 = n, 1 = acc,
// 2 = i, 3 = object, 4 = array, 5 = exception.
func fragBody(uncaught bool) func(a *bytecode.Assembler) {
	return func(a *bytecode.Assembler) {
		a.ReserveLocals(6)
		a.Const(0).IStore(1).Const(0).IStore(2)
		a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
		a.New(amFin).Dup().InvokeSpecial(amFin, classfile.InitName, "()V").Pop()
		a.New(amK).AStore(3)
		a.ALoad(3).ILoad(2).PutField(amK, "v")
		a.ILoad(2).Const(7).IAnd().NewArray("").AStore(4)
		a.Label("try").ALoad(4).ILoad(2).Const(5).IRem().ArrayLoad().Pop().Goto("next")
		a.Label("catch").AStore(5)
		a.ALoad(5).InvokeVirtual(interp.ClassThrowable, "getMessage", "()Ljava/lang/String;").
			InvokeVirtual(interp.ClassString, "hashCode", "()I").
			ILoad(1).IXor().Const(0xFFFFFF).IAnd().IStore(1)
		a.Label("next").ILoad(1).ALoad(3).GetField(amK, "v").IAdd().IStore(1)
		a.IInc(2, 1).Goto("loop")
		a.Label("done")
		if uncaught {
			a.ALoad(4).Const(9).ArrayLoad().IReturn()
		} else {
			a.ILoad(1).GetStatic(amFin, "finalized").Const(20).IShl().IXor().IReturn()
		}
		a.Handler("try", "catch", "catch", interp.ClassArrayIndexException)
	}
}

// amVM defines amClasses in a fresh VM.
func amVM(t *testing.T, newVM func(interp.Options) *interp.VM, opts interp.Options) (*interp.VM, *core.Isolate, *classfile.Class) {
	t.Helper()
	vm := newVM(opts)
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(amClasses()); err != nil {
		t.Fatal(err)
	}
	use, err := iso.Loader().Lookup(amUse)
	if err != nil {
		t.Fatal(err)
	}
	return vm, iso, use
}

// amSharedVM defines amClasses in an isolate-less template loader that the
// isolates delegate to — two under I-JVM, with one mirror (one <clinit>
// run) each; the baseline has one isolate.
func amSharedVM(t *testing.T, mode core.Mode) (*interp.VM, []*core.Isolate, *classfile.Class) {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: mode})
	syslib.MustInstall(vm)
	template := vm.Registry().NewLoader("template")
	if err := template.DefineAll(amClasses()); err != nil {
		t.Fatal(err)
	}
	isos := make([]*core.Isolate, 1)
	if mode == core.ModeIsolated {
		isos = make([]*core.Isolate, 2)
	}
	for i := range isos {
		iso, err := vm.NewIsolate(fmt.Sprintf("iso%d", i))
		if err != nil {
			t.Fatal(err)
		}
		iso.Loader().AddDelegate(template)
		isos[i] = iso
	}
	use, err := template.Lookup(amUse)
	if err != nil {
		t.Fatal(err)
	}
	return vm, isos, use
}

func amSpawn(t *testing.T, vm *interp.VM, iso *core.Isolate, use *classfile.Class, name string, args ...heap.Value) *interp.Thread {
	t.Helper()
	th, err := vm.SpawnThread(name, iso, findMethod(t, use, name), args)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// amCall runs use.name to completion and reports its outcome: the result,
// or the failure as it reads after a collection.
func amCall(t *testing.T, vm *interp.VM, iso *core.Isolate, use *classfile.Class, name string, args ...heap.Value) string {
	t.Helper()
	v, th, err := vm.CallRoot(iso, findMethod(t, use, name), args, 50_000_000)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	vm.CollectGarbage(nil)
	if th.Failure() != nil {
		return "failure " + th.FailureString()
	}
	return fmt.Sprintf("result %d", v.I)
}

// TestAllocationMicros pins the new and newarray micros on the step level
// and against the seed switch: a first new bails with the frame exact and
// <clinit> pushed; an allocation loop retires compiled chains; a newarray
// whose length the guard refuses throws the switch's exception; a full
// heap bails to the switch, which collects and retries; under an open mark
// cycle the micro allocates black; and the oracle fragment — finalizable
// garbage, message-bearing exceptions, a small heap — agrees on both
// engines in both modes under both collectors.
func TestAllocationMicros(t *testing.T) {
	chained := func(t *testing.T, vm *interp.VM, th *interp.Thread, what string) {
		t.Helper()
		sizes, err := vm.StepSizesForTest(th, 1<<40, 1<<20)
		if err != nil || !th.Done() {
			t.Fatalf("%s: err %v, done %v", what, err, th.Done())
		}
		var retired int64
		for _, s := range sizes {
			retired += s
		}
		if int64(len(sizes))*32 > retired {
			t.Fatalf("%s: %d instructions in %d engine steps, want compiled chains", what, retired, len(sizes))
		}
	}
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		t.Run("steps/"+mode.String(), func(t *testing.T) {
			vm, isos, use := amSharedVM(t, mode)
			iso := isos[0]
			k, err := iso.Loader().Lookup(amK)
			if err != nil {
				t.Fatal(err)
			}
			// The block materialises iload/iconst, the new micro bails, and
			// the switch pushes <clinit> — in the second isolate too
			// under I-JVM, where the class is resolved but its mirror there
			// is not initialized.
			for _, iso := range isos {
				th := amSpawn(t, vm, iso, use, "first", heap.IntVal(5))
				sizes, err := vm.StepSizesForTest(th, 1<<40, 1)
				if err != nil || !reflect.DeepEqual(sizes, []int64{3}) {
					t.Fatalf("%s: first step: sizes %v, err %v; want one step of 3 instructions", iso.Name(), sizes, err)
				}
				want := []interp.FrameForTest{
					{Method: findMethod(t, use, "first").QualifiedName(), PC: 2, Stack: []heap.Value{heap.IntVal(5), heap.IntVal(2)}},
					{Method: k.Clinit.QualifiedName(), PC: 0},
				}
				if frames := interp.FramesForTest(th); !reflect.DeepEqual(frames, want) {
					t.Fatalf("%s: frames after the bail:\n got %+v\nwant %+v", iso.Name(), frames, want)
				}
				if _, err := vm.StepSizesForTest(th, 1<<40, 1<<20); err != nil || th.Result().I != 10 {
					t.Fatalf("%s: first(5): err %v, result %d", iso.Name(), err, th.Result().I)
				}
				if got := vm.World().Mirror(k, iso).Statics[0].I; got != 1 {
					t.Fatalf("%s: am/K <clinit> ran %d times", iso.Name(), got)
				}
			}

			before := iso.Account().AllocatedObjects.Load()
			th := amSpawn(t, vm, iso, use, "churn", heap.IntVal(2000))
			chained(t, vm, th, "new loop")
			if th.Result().I != 2000 {
				t.Fatalf("churn(2000) = %d", th.Result().I)
			}
			if mode == core.ModeIsolated {
				if got := iso.Account().AllocatedObjects.Load() - before; got != 2000 {
					t.Fatalf("the loop charged %d objects, want 2000", got)
				}
			}

			// A refused length bails with its operand materialised; the
			// switch throws.
			th = amSpawn(t, vm, iso, use, "arr", heap.IntVal(-5))
			if sizes, err := vm.StepSizesForTest(th, 1<<40, 4); err != nil || !reflect.DeepEqual(sizes, []int64{2}) || !th.Done() {
				t.Fatalf("arr(-5): sizes %v, err %v, done %v; want one step of 2", sizes, err, th.Done())
			}
			if got := th.FailureString(); got != interp.ClassNegativeArraySize+": -5" {
				t.Fatalf("arr(-5) failed with %q", got)
			}
		})
	}

	// Every outcome on both engines, both modes: newarray lengths the
	// guard refuses, a churn on a full heap, allocate-black.
	type outcome struct {
		neg, huge, ok, churn string
		gcs, instrs          int64
		black                string
	}
	var ref outcome
	var refName string
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for engine, newVM := range engines {
			name := fmt.Sprintf("%s/%v", engine, mode)
			vm, iso, use := amVM(t, newVM, interp.Options{Mode: mode, HeapLimit: 64 << 10, GCThresholdPercent: -1})
			var o outcome
			o.neg = amCall(t, vm, iso, use, "arr", heap.IntVal(-5))
			o.huge = amCall(t, vm, iso, use, "arr", heap.IntVal(1<<40))
			o.ok = amCall(t, vm, iso, use, "arr", heap.IntVal(7))
			gcs := vm.Heap().GCCount()
			o.churn = amCall(t, vm, iso, use, "churn", heap.IntVal(20000))
			o.gcs = vm.Heap().GCCount() - gcs
			o.instrs = vm.TotalInstructions()
			if !strings.HasPrefix(o.neg, "failure "+interp.ClassNegativeArraySize) ||
				!strings.HasPrefix(o.huge, "failure "+interp.ClassOutOfMemoryError) || o.ok != "result 7" ||
				o.churn != "result 20000" || o.gcs < 3 {
				t.Fatalf("%s: %+v", name, o)
			}

			// Allocate-black: am/K is initialized, a cycle is open, and the
			// object mk returns is marked at birth; the cycle keeps it, the
			// next exact collection sweeps it.
			if !vm.StartIncrementalCycle() {
				t.Fatalf("%s: the cycle did not open", name)
			}
			th := amSpawn(t, vm, iso, use, "mk")
			sizes, err := vm.StepSizesForTest(th, 1<<40, 4)
			if err != nil || !th.Done() {
				t.Fatalf("%s: mk: err %v", name, err)
			}
			if engine == "closure" && sizes[0] != 2 {
				t.Fatalf("%s: mk ran in steps %v; want the new inside the first", name, sizes)
			}
			obj := th.Result().R
			marked := obj.Marked()
			vm.FinishIncrementalCycle()
			kept := !obj.Dead()
			vm.CollectGarbage(nil)
			o.black = fmt.Sprintf("marked %v, kept by the cycle %v, swept after %v", marked, kept, obj.Dead())
			if o.black != "marked true, kept by the cycle true, swept after true" {
				t.Fatalf("%s: %s", name, o.black)
			}
			if ref == (outcome{}) {
				ref, refName = o, name
			} else if o != ref {
				t.Fatalf("%s: %+v\n%s: %+v", name, o, refName, ref)
			}
		}
	}

	// The oracle fragment.
	for _, paced := range []bool{false, true} {
		for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			var ref, refName string
			for engine, newVM := range engines {
				name := fmt.Sprintf("%s/%v/paced=%v", engine, mode, paced)
				opts := interp.Options{Mode: mode, HeapLimit: 32 << 10, GCThresholdPercent: -1}
				if paced {
					opts.GCThresholdPercent, opts.GCMarkStride = 50, 32
				}
				vm, iso, use := amVM(t, newVM, opts)
				frag := amCall(t, vm, iso, use, "frag", heap.IntVal(600))
				boom := amCall(t, vm, iso, use, "boom", heap.IntVal(300))
				vm.Run(1_000_000) // the finalizers the last collection scheduled
				final := vm.CollectGarbage(nil)
				s := vm.SnapshotOf(iso)
				got := fmt.Sprintf("%s; %s; %d instructions, clock %d, allocated %d/%d, live %d/%d, used %d",
					frag, boom, vm.TotalInstructions(), vm.Clock(), s.AllocatedObjects, s.AllocatedBytes,
					final.LiveObjects, final.LiveBytes, vm.Heap().Used())
				if !paced {
					got += fmt.Sprintf(", %d collections", vm.Heap().GCCount())
				}
				if !strings.HasPrefix(frag, "result ") || frag == "result 0" ||
					boom != "failure "+interp.ClassArrayIndexException+": index 9 of 3" ||
					vm.Heap().GCCount() < 5 || final.LiveBytes != vm.Heap().Used() {
					t.Fatalf("%s: %s", name, got)
				}
				if ref == "" {
					ref, refName = got, name
				} else if got != ref {
					t.Fatalf("%s:\n %s\n%s:\n %s", name, got, refName, ref)
				}
			}
		}
	}
}

// TestAllocationMicrosStorm runs two workers allocating through the micros
// — each keeps a ring of linked objects and drops small arrays — beside a
// host goroutine that collects, opens and finishes mark cycles, on a heap
// small enough for pressure collections too. Every checksum and every
// object count must equal the sequential reference run's.
func TestAllocationMicrosStorm(t *testing.T) {
	const iters = 20000
	run := func(t *testing.T, storm bool) ([]int64, []int64) {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10, GCThresholdPercent: 50, GCMarkStride: 64})
		syslib.MustInstall(vm)
		var threads []*interp.Thread
		var isolates []*core.Isolate
		for k := 0; k < 2; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("w%d", k))
			if err != nil {
				t.Fatal(err)
			}
			if err := iso.Loader().DefineAll(amClasses()); err != nil {
				t.Fatal(err)
			}
			use, err := iso.Loader().Lookup(amUse)
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, amSpawn(t, vm, iso, use, "ring", heap.IntVal(int64(iters+k))))
			isolates = append(isolates, iso)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if storm {
			run := sched.Start(vm, sched.Config{Workers: 2})
			wg.Add(1)
			go func() {
				defer wg.Done()
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
						vm.FinishIncrementalCycle()
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			if res := run.Wait(); !res.AllDone {
				t.Fatalf("run did not finish: %+v", res)
			}
		} else if res := vm.Run(1 << 40); !res.AllDone {
			t.Fatalf("reference run did not finish: %+v", res)
		}
		close(stop)
		wg.Wait()
		final := vm.CollectGarbage(nil)
		if used, n := vm.Heap().Used(), vm.Heap().NumObjects(); used != final.LiveBytes || int64(n) != final.LiveObjects {
			t.Fatalf("storm=%v: used %d / %d objects after the final collection, live %d / %d", storm, used, n, final.LiveBytes, final.LiveObjects)
		}
		var sums, objects []int64
		for k, th := range threads {
			if th.Err() != nil || th.Failure() != nil {
				t.Fatalf("storm=%v w%d: %v / %s", storm, k, th.Err(), th.FailureString())
			}
			sums = append(sums, th.Result().I)
			objects = append(objects, vm.SnapshotOf(isolates[k]).AllocatedObjects)
		}
		return sums, objects
	}
	wantSums, wantObjects := run(t, false)
	for round := 0; round < 3; round++ {
		sums, objects := run(t, true)
		if !reflect.DeepEqual(sums, wantSums) || !reflect.DeepEqual(objects, wantObjects) {
			t.Fatalf("round %d: checksums %v, objects %v; the sequential run: %v, %v", round, sums, objects, wantSums, wantObjects)
		}
	}
}

// TestHeapCountsExactAtQuantumBoundaries: the domain publishes its slack
// and object count when a quantum ends, so at every quantum boundary —
// sequential engine and a worker's — Used() and NumObjects() account for
// exactly what the isolate has allocated, and after every collection they
// equal the live figures.
func TestHeapCountsExactAtQuantumBoundaries(t *testing.T) {
	const quantum, iters = 97, 3000
	for _, engine := range []string{"sequential", "worker"} {
		t.Run(engine, func(t *testing.T) {
			vm, iso, use := amVM(t, interp.NewVM, interp.Options{Mode: core.ModeIsolated, Quantum: quantum})
			th := amSpawn(t, vm, iso, use, "ring", heap.IntVal(iters))
			var worker interp.SampleState
			defer vm.ReleaseWorkerState(&worker)
			h := vm.Heap()
			res := vm.CollectGarbage(nil)
			baseBytes, baseObjects := res.LiveBytes, res.LiveObjects
			alloc := iso.Account().Numbers()
			for q := 0; !th.Done(); q++ {
				if engine == "sequential" {
					vm.RunUntil(th, quantum)
				} else {
					vm.RunThreadQuantum(th, iso, quantum, nil, &worker, nil)
				}
				now := iso.Account().Numbers()
				wantBytes := baseBytes + now.AllocatedBytes - alloc.AllocatedBytes
				wantObjects := baseObjects + now.AllocatedObjects - alloc.AllocatedObjects
				if h.Used() != wantBytes || int64(h.NumObjects()) != wantObjects {
					t.Fatalf("quantum %d: used %d / %d objects, want %d / %d", q, h.Used(), h.NumObjects(), wantBytes, wantObjects)
				}
				if q%7 == 3 {
					res = vm.CollectGarbage(nil)
					if h.Used() != res.LiveBytes || int64(h.NumObjects()) != res.LiveObjects {
						t.Fatalf("quantum %d: used %d / %d objects after a collection, live %d / %d", q, h.Used(), h.NumObjects(), res.LiveBytes, res.LiveObjects)
					}
					baseBytes, baseObjects, alloc = res.LiveBytes, res.LiveObjects, iso.Account().Numbers()
				}
			}
			if th.Err() != nil || th.Failure() != nil {
				t.Fatalf("ring: %v / %s", th.Err(), th.FailureString())
			}
		})
	}
}
