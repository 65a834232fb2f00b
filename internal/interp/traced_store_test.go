package interp_test

import (
	"fmt"
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

// The traced-holder rule (internal/heap barrier.go): while a cycle is
// open, a guest store into a holder the marker has not scanned yet
// records the overwritten reference, and a store into one it has scanned
// is a plain store that records nothing. These tests pin the rule on
// every store path — aastore, putfield and System.arraycopy, on the seed
// switch and the closure engine, in both modes.

const (
	tsMain = "ts/Main"
	tsBox  = "ts/Box"
	// tsWarm is the slot the warm-up stores clear; slots 0-2 hold the
	// objects the three phases overwrite.
	tsWarm = 3
)

// tracedStoreClasses builds Box (four reference fields) and Main, whose
// statics A, B and S hold the array holder, the object holder and an
// all-null source array; store(i) clears slot i of a holder with op:
// "aastore" A[i] = null, "putfield" B.f<i> = null, "arraycopy"
// System.arraycopy(S, 0, A, i, 1).
func tracedStoreClasses(op string) []*classfile.Class {
	box := classfile.NewClass(tsBox)
	for i := 0; i < 4; i++ {
		box.Field(fmt.Sprintf("f%d", i), classfile.KindRef)
	}
	main := classfile.NewClass(tsMain).
		StaticField("A", classfile.KindRef).
		StaticField("B", classfile.KindRef).
		StaticField("S", classfile.KindRef).
		Method("init", "(Ljava/lang/Object;Ljava/lang/Object;Ljava/lang/Object;)V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).PutStatic(tsMain, "A")
			a.ALoad(1).PutStatic(tsMain, "B")
			a.ALoad(2).PutStatic(tsMain, "S")
			a.Return()
		}).
		Method("store", "(I)V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			switch op {
			case "aastore":
				a.GetStatic(tsMain, "A").ILoad(0).Null().ArrayStore().Return()
			case "putfield":
				for i := 0; i < 4; i++ {
					next := fmt.Sprintf("not%d", i)
					a.ILoad(0).Const(int64(i)).IfICmpNe(next)
					a.GetStatic(tsMain, "B").CheckCast(tsBox).Null().PutField(tsBox, fmt.Sprintf("f%d", i)).Return()
					a.Label(next)
				}
				a.Return()
			case "arraycopy":
				a.GetStatic(tsMain, "S").Const(0).GetStatic(tsMain, "A").ILoad(0).Const(1).
					InvokeStatic("java/lang/System", "arraycopy", "(Ljava/lang/Object;ILjava/lang/Object;II)V").
					Return()
			}
		})
	return []*classfile.Class{box.MustBuild(), main.MustBuild()}
}

// TestStoreIntoTracedHolder runs three phases on a holder whose slots
// 0-2 hold x, y and z, each only there: a cycle opens and store(0) runs
// before any mark step — the record count moves, and x, held by that
// slot alone at the snapshot, survives the cycle; mark steps run until
// the holder is traced and store(1) leaves the record count where it
// was (y was queued by the scan, and survives); the next cycle's store(2),
// before the holder's re-scan, records again — which fails if the sweep
// leaves the traced bit set.
func TestStoreIntoTracedHolder(t *testing.T) {
	for _, op := range []string{"aastore", "putfield", "arraycopy"} {
		for _, e := range []string{"seed switch", "closure"} {
			for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
				t.Run(fmt.Sprintf("%s/%s/%v", op, e, mode), func(t *testing.T) {
					tracedStorePhases(t, engines[e](interp.Options{Mode: mode, GCThresholdPercent: -1}), op)
				})
			}
		}
	}
}

func tracedStorePhases(t *testing.T, vm *interp.VM, op string) {
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("ts")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(tracedStoreClasses(op)); err != nil {
		t.Fatal(err)
	}
	main, _ := iso.Loader().Lookup(tsMain)
	boxClass, _ := iso.Loader().Lookup(tsBox)
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(class *classfile.Class) *heap.Object {
		o, err := vm.AllocObjectIn(nil, class, iso)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	array := func() *heap.Object {
		a, err := vm.AllocArrayIn(nil, objClass, 4, iso)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	arr, box, src := array(), alloc(boxClass), array()
	holder := arr
	if op == "putfield" {
		holder = box
	}
	held := []*heap.Object{alloc(objClass), alloc(objClass), alloc(objClass)}
	for i, o := range held {
		holder.Elems[i] = heap.RefVal(o)
	}
	callStatic(t, vm, iso, main, "init", heap.RefVal(arr), heap.RefVal(box), heap.RefVal(src))
	// Two warm-up stores with no cycle open: the methods are prepared and
	// the engine's form adopted before any phase measures.
	callStatic(t, vm, iso, main, "store", heap.IntVal(tsWarm))
	callStatic(t, vm, iso, main, "store", heap.IntVal(tsWarm))

	finish := func() {
		t.Helper()
		if vm.Heap().CycleOpen() {
			if _, ok := vm.FinishIncrementalCycle(); !ok {
				t.Fatal("FinishIncrementalCycle refused an open cycle")
			}
		}
		if holder.Traced() {
			t.Fatal("the holder is still traced after its cycle")
		}
	}
	store := func(i int, wantRecords bool) {
		t.Helper()
		before := vm.Heap().BarrierRecords()
		callStatic(t, vm, iso, main, "store", heap.IntVal(int64(i)))
		if holder.Elems[i].R != nil {
			t.Fatalf("store(%d) left the slot set", i)
		}
		got := vm.Heap().BarrierRecords() - before
		if wantRecords && got == 0 {
			t.Fatalf("store(%d) into an unscanned holder took no record", i)
		}
		if !wantRecords && got != 0 {
			t.Fatalf("store(%d) into a traced holder took %d records, want 0", i, got)
		}
	}

	// Phase 1: an unscanned holder.
	if !vm.StartIncrementalCycle() {
		t.Fatal("StartIncrementalCycle refused")
	}
	store(0, true)
	finish()
	if held[0].Dead() {
		t.Fatal("the overwritten object, live at the snapshot, was swept by its cycle")
	}

	// Phase 2: a scanned holder.
	if !vm.StartIncrementalCycle() {
		t.Fatal("StartIncrementalCycle refused")
	}
	for steps := 0; !holder.Traced(); steps++ {
		if vm.GCMarkStep(1) || steps > 10_000 {
			t.Fatalf("the mark finished after %d steps without tracing the holder", steps)
		}
	}
	store(1, false)
	finish()
	if held[1].Dead() {
		t.Fatal("the object the scan queued was swept by its cycle")
	}

	// Phase 3: the next cycle, before the holder's re-scan.
	if !vm.StartIncrementalCycle() {
		t.Fatal("StartIncrementalCycle refused")
	}
	store(2, true)
	finish()
	if held[2].Dead() {
		t.Fatal("the overwritten object, live at the snapshot, was swept by its cycle")
	}
}

const (
	// tracedStressSlots is the shared spine's length; each of the two
	// store threads owns half of it.
	tracedStressSlots = 20_000
	tracedStressIters = 25_000
	tracedStressHalf  = tracedStressSlots / 2
)

// tracedStressClasses builds one isolate's Box{v} and Main.run(spine,
// base, n): n times, slot base + i%half of the spine is read — a box
// there adds its v to the checksum — and overwritten with a fresh box
// holding i; a dropped 8-slot array is churn. spin(a) stores fresh
// objects into a forever: the kill storm's victims. Locals of run: 0
// spine, 1 base, 2 n, 3 i, 4 acc, 5 slot, 6 box.
func tracedStressClasses(prefix string) []*classfile.Class {
	boxName := prefix + "/Box"
	box := classfile.NewClass(boxName).Field("v", classfile.KindInt).MustBuild()
	main := classfile.NewClass(prefix+"/Main").
		Method("run", "(Ljava/lang/Object;II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(3).ILoad(2).IfICmpGe("done")
			a.ILoad(1).ILoad(3).Const(tracedStressHalf).IRem().IAdd().IStore(5)
			a.ALoad(0).ILoad(5).ArrayLoad().AStore(6)
			a.ALoad(6).IfNull("fresh")
			a.ILoad(4).ALoad(6).CheckCast(boxName).GetField(boxName, "v").IAdd().IStore(4)
			a.Label("fresh").New(boxName).AStore(6)
			a.ALoad(6).ILoad(3).PutField(boxName, "v")
			a.ALoad(0).ILoad(5).ALoad(6).ArrayStore()
			a.Const(8).NewArray("").Pop()
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(4).IReturn()
		}).
		Method("spin", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ALoad(0).ILoad(1).Const(64).IRem().New(classfile.ObjectClassName).ArrayStore()
			a.IInc(1, 1).Goto("loop")
		}).MustBuild()
	return []*classfile.Class{box, main}
}

// TestTracedStoreStress is the traced-holder rule's -race stress: two
// workers run two store threads that overwrite their halves of one pinned
// 20k-slot array while markers scan it — at every quantum boundary with
// GCMarkStride 1 and 64, and from a host goroutine — beside a storm of
// cycle starts, exact collections (abandons) and kills of three victim
// isolates storing into an array of their own. A store that finds the
// spine traced is a plain store; the race detector reports it if the bit
// were set before the marker's last slot load. Both checksums must be
// exact, and every box the spine holds must be alive and the last one
// written to its slot, before and after a final exact collection.
func TestTracedStoreStress(t *testing.T) {
	for _, stride := range []int{1, 64} {
		t.Run(fmt.Sprintf("stride%d", stride), func(t *testing.T) { tracedStress(t, stride) })
	}
}

func tracedStress(t *testing.T, stride int) {
	vm := interp.NewVM(interp.Options{
		Mode:               core.ModeIsolated,
		HeapLimit:          2 << 20,
		GCThresholdPercent: 50,
		GCMarkStride:       stride,
	})
	syslib.MustInstall(vm)
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(name, method, desc string, args func(iso *core.Isolate) []heap.Value) (*core.Isolate, *interp.Thread) {
		t.Helper()
		iso, err := vm.NewIsolate(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().DefineAll(tracedStressClasses(name)); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup(name + "/Main")
		m, err := c.LookupMethod(method, desc)
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(name, iso, m, args(iso))
		if err != nil {
			t.Fatal(err)
		}
		return iso, th
	}
	pinnedArray := func(n int, iso *core.Isolate) *heap.Object {
		t.Helper()
		a, err := vm.AllocArrayIn(nil, objClass, n, iso)
		if err != nil {
			t.Fatal(err)
		}
		vm.Pin(iso.ID(), a)
		return a
	}

	var spine *heap.Object
	var stores []*interp.Thread
	for k := 0; k < 2; k++ {
		_, th := spawn(fmt.Sprintf("store%d", k), "run", "(Ljava/lang/Object;II)I", func(iso *core.Isolate) []heap.Value {
			if spine == nil {
				spine = pinnedArray(tracedStressSlots, iso)
			}
			return []heap.Value{heap.RefVal(spine), heap.IntVal(int64(k * tracedStressHalf)), heap.IntVal(tracedStressIters)}
		})
		stores = append(stores, th)
	}
	var victims []*core.Isolate
	for k := 0; k < 3; k++ {
		iso, _ := spawn(fmt.Sprintf("victim%d", k), "spin", "(Ljava/lang/Object;)I", func(iso *core.Isolate) []heap.Value {
			return []heap.Value{heap.RefVal(pinnedArray(64, iso))}
		})
		victims = append(victims, iso)
	}

	run := sched.Start(vm, sched.Config{Workers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				vm.StartIncrementalCycle()
			case 1, 2:
				vm.GCMarkStep(64)
			default:
				vm.CollectGarbage(nil)
			}
			if i%5 == 4 && i/5 < len(victims) {
				if err := vm.KillIsolate(nil, victims[i/5]); err != nil {
					t.Errorf("kill: %v", err)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	res := run.Wait()
	close(stop)
	wg.Wait()
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}

	const n, half = tracedStressIters, tracedStressHalf
	for k, th := range stores {
		if th.Err() != nil || th.Failure() != nil {
			t.Fatalf("store%d: %v / %s", k, th.Err(), th.FailureString())
		}
		// Iteration i >= half reads the box iteration i-half wrote.
		if want := int64((n - half) * (n - half - 1) / 2); th.Result().I != want {
			t.Fatalf("store%d: checksum %d, want %d", k, th.Result().I, want)
		}
	}
	walk := func(when string) {
		t.Helper()
		if spine.Dead() {
			t.Fatalf("%s: the pinned spine was swept", when)
		}
		for j := range spine.Elems {
			r := j % half
			last := r + half*((n-1-r)/half)
			b := spine.Elems[j].R
			if b == nil || b.Dead() || b.Elems[0].I != int64(last) {
				t.Fatalf("%s: slot %d holds %v, want a live box of %d", when, j, b, last)
			}
		}
	}
	walk("after the run")
	final := vm.CollectGarbage(nil)
	walk("after a final exact collection")
	if used := vm.Heap().Used(); used != final.LiveBytes {
		t.Fatalf("used %d != live %d after the final collection", used, final.LiveBytes)
	}
	if c := vm.Heap().IncrementalCycles(); c < 2 {
		t.Fatalf("only %d incremental cycles ran", c)
	}
}
