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

// This file is the sharded-memory-subsystem companion of
// TestInlineCachePublicationRace: it hammers the per-shard allocation
// domains and the striped monitor table from >= 6 scheduler shards at
// once, through stop-the-world safepoints (admin-cycled accounting
// collections PLUS allocation-pressure collections forced by a small
// heap) and a mid-run World.Kill. Every isolate runs the same loop:
//
//   - allocate one object it keeps (bounded ring, so some allocations
//     survive each collection) and one array it drops (garbage churn
//     that forces GC-on-pressure);
//   - enter/exit the monitor of ONE object shared by every isolate —
//     cross-shard contention on a single stripe, exercising the
//     blockOnMonitor park path, the promote re-poll and (when the
//     victim dies while holding it) the kill path's force-release.
//
// The test runs under -race in CI. Assertions: the run completes (a
// lost force-release or a lost monitor wake-up would deadlock it),
// non-victim threads compute the exact expected result, their
// per-isolate byte accounts are identical (the loop is symmetric), and
// the post-run collection leaves the reservation counter exactly equal
// to the live bytes.

const (
	memStressIsolates = 8
	memStressIters    = 2000
	memStressKeep     = 64
)

// memStressClasses builds one isolate's bundle: run(shared, n) performs
// n iterations of keep-alloc + churn-alloc + shared-monitor section.
// Locals: 0 shared, 1 n, 2 i, 3 acc, 4 keep ring, 5 tmp.
func memStressClasses(prefix string) []*classfile.Class {
	main := classfile.NewClass(prefix+"/Main").
		Method("run", "(Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(memStressKeep).NewArray("").AStore(4)
			a.Const(0).IStore(2)
			a.Const(0).IStore(3)
			a.Label("loop").ILoad(2).ILoad(1).IfICmpGe("done")
			// Kept allocation into the ring (survives collections).
			a.New(classfile.ObjectClassName).Dup().
				InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").
				AStore(5)
			a.ALoad(4).ILoad(2).Const(memStressKeep).IRem().ALoad(5).ArrayStore()
			// Dropped allocation (garbage churn -> GC pressure).
			a.Const(32).NewArray("").AStore(5)
			a.Null().AStore(5)
			// Cross-shard shared monitor section.
			a.ALoad(0).MonitorEnter()
			a.ILoad(3).Const(1).IAdd().IStore(3)
			a.ALoad(0).MonitorExit()
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(3).IReturn()
		}).MustBuild()
	return []*classfile.Class{main}
}

// TestShardedAllocMonitorStress is the -race stress: 8 isolate shards on
// 4 workers allocating through their domains and contending on one
// shared monitor, while an admin goroutine cycles accounting
// collections and kills one victim isolate mid-run.
func TestShardedAllocMonitorStress(t *testing.T) {
	for round := 0; round < 2; round++ {
		// Small heap: the churn forces frequent GC-on-pressure
		// collections from the workers themselves, on top of the admin
		// cycle below.
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10})
		syslib.MustInstall(vm)
		objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
		if err != nil {
			t.Fatal(err)
		}

		var threads []*interp.Thread
		var isolates []*core.Isolate
		var victim *core.Isolate
		var shared *heap.Object
		for k := 0; k < memStressIsolates; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("bundle%d", k))
			if err != nil {
				t.Fatal(err)
			}
			isolates = append(isolates, iso)
			if k == 0 {
				// The shared monitor object, charged to bundle0 and kept
				// alive by every thread's frame.
				shared, err = vm.AllocObjectIn(nil, objClass, iso)
				if err != nil {
					t.Fatal(err)
				}
			}
			if k == 1 {
				victim = iso
			}
			prefix := fmt.Sprintf("ms%d", k)
			if err := iso.Loader().DefineAll(memStressClasses(prefix)); err != nil {
				t.Fatal(err)
			}
			c, err := iso.Loader().Lookup(prefix + "/Main")
			if err != nil {
				t.Fatal(err)
			}
			m, err := c.LookupMethod("run", "(Ljava/lang/Object;I)I")
			if err != nil {
				t.Fatal(err)
			}
			th, err := vm.SpawnThread(prefix, iso, m,
				[]heap.Value{heap.RefVal(shared), heap.IntVal(memStressIters)})
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !awaitAttached(vm, stop) {
				return
			}
			killed := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				vm.CollectGarbage(nil)
				if i == 2 && !killed {
					killed = true
					if err := vm.KillIsolate(nil, victim); err != nil {
						t.Errorf("kill: %v", err)
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		res := sched.Run(vm, 4, 0)
		close(stop)
		wg.Wait()
		if !res.AllDone {
			t.Fatalf("round %d: run did not finish: %+v", round, res)
		}

		var wantBytes int64 = -1
		for k, th := range threads {
			if th.Err() != nil {
				t.Fatalf("round %d bundle%d: host error %v", round, k, th.Err())
			}
			if k == 1 {
				// The victim either finished before the kill landed or died
				// with the termination exception; both are legal.
				continue
			}
			if th.Failure() != nil {
				t.Fatalf("round %d bundle%d: guest failure %v", round, k, th.FailureString())
			}
			if th.Result().I != memStressIters {
				t.Fatalf("round %d bundle%d: result %d, want %d", round, k, th.Result().I, memStressIters)
			}
			// The loop is symmetric, so creator-charged byte accounts of
			// the surviving isolates must be identical — batched charging
			// across domains, collections and kill safepoints loses
			// nothing.
			b := vm.SnapshotOf(isolates[k]).AllocatedBytes
			if k == 0 {
				// bundle0 additionally owns the shared monitor object.
				b -= shared.Size()
			}
			if wantBytes == -1 {
				wantBytes = b
			} else if b != wantBytes {
				t.Fatalf("round %d bundle%d: allocated bytes %d, want %d", round, k, b, wantBytes)
			}
		}

		// Reservation-counter soundness: after a final collection the
		// shared atomic counter equals exactly the live bytes.
		final := vm.CollectGarbage(nil)
		if used := vm.Heap().Used(); used != final.LiveBytes {
			t.Fatalf("round %d: used %d != live %d after final collection", round, used, final.LiveBytes)
		}
		if vm.Heap().GCCount() < 3 {
			t.Fatalf("round %d: expected several collections, got %d", round, vm.Heap().GCCount())
		}

		// Kill-then-recycle accounting regression: the disposed victim's
		// slot goes back through FreeIsolate, and the isolate that reuses
		// the ID must start from zero on every field — a stale allocation
		// total, live usage or GCActivations counter would bill the new
		// tenant for the dead one's history. A fast run may finish before
		// the admin's mid-run kill lands, so make sure the victim is dead
		// before demanding disposal.
		if victim.State() == core.StateLive {
			if err := vm.KillIsolate(nil, victim); err != nil {
				t.Fatalf("round %d: post-run kill: %v", round, err)
			}
			vm.CollectGarbage(nil)
		}
		if !victim.Disposed() {
			t.Fatalf("round %d: victim not disposed after drain + collection", round)
		}
		victimID := victim.ID()
		if err := vm.FreeIsolate(victim); err != nil {
			t.Fatalf("round %d: free victim: %v", round, err)
		}
		reborn, err := vm.NewIsolate("reborn")
		if err != nil {
			t.Fatal(err)
		}
		if reborn.ID() != victimID {
			t.Fatalf("round %d: recycled isolate got ID %d, want victim's %d", round, reborn.ID(), victimID)
		}
		fresh := core.Snapshot{IsolateID: int32(victimID), IsolateName: "reborn", State: core.StateLive}
		if snap := vm.SnapshotOf(reborn); snap != fresh {
			t.Fatalf("round %d: recycled isolate inherits %+v", round, snap)
		}
		// The recycled slot must be fully serviceable: run the same
		// workload in it and check both the result and that charging
		// starts from a clean slate.
		const rebornIters = 200
		if err := reborn.Loader().DefineAll(memStressClasses("msr")); err != nil {
			t.Fatal(err)
		}
		rc, err := reborn.Loader().Lookup("msr/Main")
		if err != nil {
			t.Fatal(err)
		}
		rm, err := rc.LookupMethod("run", "(Ljava/lang/Object;I)I")
		if err != nil {
			t.Fatal(err)
		}
		v, rth, err := vm.CallRoot(reborn, rm,
			[]heap.Value{heap.RefVal(shared), heap.IntVal(rebornIters)}, 0)
		if err != nil || rth.Failure() != nil {
			t.Fatalf("round %d: reborn run: %v / %s", round, err, rth.FailureString())
		}
		if v.I != rebornIters {
			t.Fatalf("round %d: reborn result %d, want %d", round, v.I, rebornIters)
		}
		acct := reborn.Account().Numbers()
		if acct.Instructions == 0 || acct.ThreadsCreated == 0 {
			t.Fatalf("round %d: reborn account not charged: %+v", round, acct)
		}
		if acct.AllocatedObjects == 0 || acct.AllocatedBytes == 0 {
			t.Fatalf("round %d: reborn allocations not charged: %+v", round, acct)
		}
		after := vm.CollectGarbage(nil)
		if used := vm.Heap().Used(); used != after.LiveBytes {
			t.Fatalf("round %d: used %d != live %d after recycle round", round, used, after.LiveBytes)
		}
	}
}

// awaitAttached is sched.AwaitStart for the admin goroutines of the
// stress tests, which are started before the run they administer: a
// collection or kill issued before the scheduler attached would run
// beside workers nobody parked. It gives up when stop closes first.
func awaitAttached(vm *interp.VM, stop <-chan struct{}) bool {
	for !vm.SchedulerAttached() {
		select {
		case <-stop:
			return false
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

const (
	coldRaceWorkers = 6
	coldRaceObjects = 256
	coldRaceRounds  = 8
	coldRaceCell    = "coldrace/Cell"
)

// coldRaceClasses builds the shared Cell{n} class and one isolate's driver:
// run(cells, rounds) walks the array rounds times; per cell it enters the
// monitor, bumps n, exits, and adds the cell's hashCode to its result.
// Locals: 0 cells, 1 rounds, 2 r, 3 i, 4 sum, 5 cell.
func coldRaceDriver(name string) *classfile.Class {
	return classfile.NewClass(name).
		Method("run", "([Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(2)
			a.Const(0).IStore(4)
			a.Label("outer").ILoad(2).ILoad(1).IfICmpGe("done")
			a.Const(0).IStore(3)
			a.Label("inner").ILoad(3).ALoad(0).ArrayLength().IfICmpGe("next")
			a.ALoad(0).ILoad(3).ArrayLoad().AStore(5)
			a.ALoad(5).MonitorEnter()
			a.ALoad(5).ALoad(5).GetField(coldRaceCell, "n").Const(1).IAdd().PutField(coldRaceCell, "n")
			a.ALoad(5).MonitorExit()
			a.ILoad(4).ALoad(5).InvokeVirtual(classfile.ObjectClassName, "hashCode", "()I").IAdd().IStore(4)
			a.IInc(3, 1).Goto("inner")
			a.Label("next").IInc(2, 1).Goto("outer")
			a.Label("done").ILoad(4).IReturn()
		}).MustBuild()
}

// TestColdRecordAttachRace races the three ways an object gets its cold
// record — first monitorenter, first hashCode (both from guest code on 4
// workers), first ResizeNative (host goroutines) — on the same fresh
// objects. Whoever loses the attach must adopt the winner's record: the
// per-cell counters (bumped under the monitor) are exact, every worker
// read the same hashes, the monitors end free, the modelled sizes are
// what the last resize set, and the reservation counter reconciles.
func TestColdRecordAttachRace(t *testing.T) {
	for round := 0; round < 3; round++ {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 4 << 20})
		syslib.MustInstall(vm)
		shared := vm.Registry().NewLoader("coldrace")
		if err := shared.Define(classfile.NewClass(coldRaceCell).Field("n", classfile.KindInt).MustBuild()); err != nil {
			t.Fatal(err)
		}
		cellClass, err := shared.Lookup(coldRaceCell)
		if err != nil {
			t.Fatal(err)
		}
		objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
		if err != nil {
			t.Fatal(err)
		}

		var isolates []*core.Isolate
		for k := 0; k < coldRaceWorkers; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("w%d", k))
			if err != nil {
				t.Fatal(err)
			}
			iso.Loader().AddDelegate(shared)
			isolates = append(isolates, iso)
		}
		owner := isolates[0]
		cells, err := vm.AllocArrayIn(nil, objClass, coldRaceObjects, owner)
		if err != nil {
			t.Fatal(err)
		}
		vm.Pin(owner.ID(), cells)
		for i := range cells.Elems {
			cell, err := vm.AllocObjectIn(nil, cellClass, owner)
			if err != nil {
				t.Fatal(err)
			}
			cells.Elems[i] = heap.RefVal(cell)
		}

		var threads []*interp.Thread
		for k, iso := range isolates {
			name := fmt.Sprintf("coldrace/Driver%d", k)
			if err := iso.Loader().Define(coldRaceDriver(name)); err != nil {
				t.Fatal(err)
			}
			c, err := iso.Loader().Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := c.LookupMethod("run", "([Ljava/lang/Object;I)I")
			if err != nil {
				t.Fatal(err)
			}
			th, err := vm.SpawnThread(name, iso, m, []heap.Value{heap.RefVal(cells), heap.IntVal(coldRaceRounds)})
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}

		// Host-side resizers walk the same cells while the workers run.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if !awaitAttached(vm, stop) {
					return
				}
				for pass := int64(0); ; pass++ {
					for i := range cells.Elems {
						select {
						case <-stop:
							return
						default:
						}
						vm.Heap().ResizeNative(cells.Elems[i].R, 8*(pass%5)+int64(g))
					}
				}
			}(g)
		}
		res := sched.Run(vm, 4, 0)
		close(stop)
		wg.Wait()
		if !res.AllDone {
			t.Fatalf("round %d: run did not finish: %+v", round, res)
		}

		var hashSum int64
		for i := range cells.Elems {
			cell := cells.Elems[i].R
			if got := cell.Elems[0].I; got != coldRaceWorkers*coldRaceRounds {
				t.Fatalf("round %d cell %d: n = %d, want %d (two lockers held different monitor records)",
					round, i, got, coldRaceWorkers*coldRaceRounds)
			}
			if m := cell.Monitor(); m != cell.Monitor() || m.Owner != 0 || m.Count != 0 {
				t.Fatalf("round %d cell %d: monitor %+v not free or not stable", round, i, *m)
			}
			if cell.IdentityHash() == 0 {
				t.Fatalf("round %d cell %d: no identity hash", round, i)
			}
			hashSum += cell.IdentityHash()
			vm.Heap().ResizeNative(cell, 40)
			if want := int64(heap.ObjectHeaderBytes + heap.ValueSlotBytes + 40); cell.Size() != want {
				t.Fatalf("round %d cell %d: size %d, want %d", round, i, cell.Size(), want)
			}
		}
		for k, th := range threads {
			if th.Err() != nil || th.Failure() != nil {
				t.Fatalf("round %d worker %d: %v / %s", round, k, th.Err(), th.FailureString())
			}
			if got := th.Result().I; got != coldRaceRounds*hashSum {
				t.Fatalf("round %d worker %d: hash sum %d, want %d (a hash changed under it)",
					round, k, got, coldRaceRounds*hashSum)
			}
		}
		final := vm.CollectGarbage(nil)
		if used := vm.Heap().Used(); used != final.LiveBytes {
			t.Fatalf("round %d: used %d != live %d after the resize storm", round, used, final.LiveBytes)
		}
	}
}
