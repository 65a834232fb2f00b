package interp_test

import (
	"fmt"
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

// This file is the incremental collector's companion of
// TestShardedAllocMonitorStress: 8 isolate shards mutate ONE shared
// object graph (a pinned 32-slot array, each shard overwriting its own
// 4-slot region every iteration) while background mark cycles open at
// 50% occupancy, mark strides run at every worker's quantum boundary,
// and terminal phases race admin-driven exact collections, explicit
// cycle starts, an InterruptThread storm and a mid-run World.Kill. Every
// overwrite of a shared slot during a cycle exercises the SATB deletion
// barrier and the atomic slot publication that markers read.
//
// The test runs under -race in CI. Assertions: the run completes,
// surviving threads compute the exact expected result, no object
// reachable through the pinned shared graph was ever swept (sweep
// soundness under concurrent marking), creator-charged byte accounts of
// the symmetric survivors are identical, the reservation counter equals
// live bytes exactly after a final exact collection, and the run really
// executed incremental cycles with live barrier traffic.

const (
	gcStressIsolates  = 8
	gcStressIters     = 1500
	gcStressKeep      = 48
	gcStressSlotsEach = 4
)

// gcStressClasses builds one isolate's bundle: run(shared, base, n)
// performs n iterations of keep-alloc + shared-graph overwrite + churn +
// shared-monitor section. Locals: 0 shared, 1 base, 2 n, 3 i, 4 acc,
// 5 ring, 6 tmp.
func gcStressClasses(prefix string) []*classfile.Class {
	main := classfile.NewClass(prefix+"/Main").
		Method("run", "(Ljava/lang/Object;II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(gcStressKeep).NewArray("").AStore(5)
			a.Const(0).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(3).ILoad(2).IfICmpGe("done")
			// Kept allocation into the private ring (survives collections).
			a.New(classfile.ObjectClassName).Dup().
				InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").
				AStore(6)
			a.ALoad(5).ILoad(3).Const(gcStressKeep).IRem().ALoad(6).ArrayStore()
			// Shared-graph mutation: overwrite this shard's slot
			// base + i%slotsEach with a fresh object. The previous
			// occupant dies mid-cycle when a mark phase is open — the
			// SATB shape — and markers scan the slot concurrently.
			a.ALoad(0).ILoad(1).ILoad(3).Const(gcStressSlotsEach).IRem().IAdd().
				ALoad(6).ArrayStore()
			// Read the slot back through the barriered array (load path).
			a.ALoad(0).ILoad(1).ArrayLoad().AStore(6)
			a.Null().AStore(6)
			// Dropped churn (drives threshold crossings and pressure).
			a.Const(48).NewArray("").AStore(6)
			a.Null().AStore(6)
			// Cross-shard shared monitor section.
			a.ALoad(0).MonitorEnter()
			a.ILoad(4).Const(1).IAdd().IStore(4)
			a.ALoad(0).MonitorExit()
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(4).IReturn()
		}).MustBuild()
	return []*classfile.Class{main}
}

// TestKillReleasesExplicitMonitor is the deterministic regression test
// for the deadlock the barrier stress surfaced: a victim killed while
// inside an EXPLICIT monitorenter section (not a synchronized method)
// must have the monitor force-released by the §3.3 kill path, or every
// contender blocks forever on a lock owned by a dead thread.
func TestKillReleasesExplicitMonitor(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.NewIsolate("platform"); err != nil { // Isolate0
		t.Fatal(err)
	}
	victim, err := vm.NewIsolate("victim")
	if err != nil {
		t.Fatal(err)
	}
	other, err := vm.NewIsolate("other")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := vm.AllocObjectIn(nil, objClass, victim)
	if err != nil {
		t.Fatal(err)
	}
	// hold(shared): explicit monitorenter, then spin forever.
	hold := classfile.NewClass("v/Hold").
		Method("run", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).MonitorEnter()
			a.Label("spin").Goto("spin")
		}).MustBuild()
	// want(shared): block entering, then report success.
	want := classfile.NewClass("o/Want").
		Method("run", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).MonitorEnter()
			a.ALoad(0).MonitorExit()
			a.Const(42).IReturn()
		}).MustBuild()
	if err := victim.Loader().DefineAll([]*classfile.Class{hold}); err != nil {
		t.Fatal(err)
	}
	if err := other.Loader().DefineAll([]*classfile.Class{want}); err != nil {
		t.Fatal(err)
	}
	spawn := func(iso *core.Isolate, cls string) *interp.Thread {
		c, err := iso.Loader().Lookup(cls)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.LookupMethod("run", "(Ljava/lang/Object;)I")
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(cls, iso, m, []heap.Value{heap.RefVal(shared)})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	holder := spawn(victim, "v/Hold")
	waiter := spawn(other, "o/Want")
	_ = holder
	// Let the holder take the monitor and the waiter block on it.
	vm.Run(10_000)
	// Kill the victim: the explicit monitor must be force-released and
	// the waiter must complete.
	if err := vm.KillIsolate(nil, victim); err != nil {
		t.Fatal(err)
	}
	res := vm.RunUntil(waiter, 1_000_000)
	if !res.TargetDone || waiter.Failure() != nil || waiter.Result().I != 42 {
		t.Fatalf("waiter did not acquire the killed holder's explicit monitor: res=%+v failure=%v result=%d",
			res, waiter.FailureString(), waiter.Result().I)
	}
}

// TestKillPreservesSurvivorMonitorRecursion pins the other half of the
// kill-path contract: force-release must drop only the KILLED frame's
// recursion levels. Here the victim's frame enters a monitor and calls
// into a surviving isolate, which re-enters the same monitor
// (recursion level 2) and keeps working inside its critical section.
// Killing the victim must not hand the monitor to a contender while
// the surviving frame is still inside it, and the surviving frame's
// own monitorexit must not throw IllegalMonitorState.
func TestKillPreservesSurvivorMonitorRecursion(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.NewIsolate("platform"); err != nil { // Isolate0
		t.Fatal(err)
	}
	victim, err := vm.NewIsolate("victim")
	if err != nil {
		t.Fatal(err)
	}
	other, err := vm.NewIsolate("other")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := vm.AllocObjectIn(nil, objClass, other)
	if err != nil {
		t.Fatal(err)
	}
	// Victim: enter the monitor, then call the surviving isolate.
	enterAndCall := classfile.NewClass("vr/Main").
		Method("run", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).MonitorEnter()
			a.ALoad(0).InvokeStatic("or/Hold", "hold", "(Ljava/lang/Object;)I").IReturn()
		}).MustBuild()
	// Survivor: re-enter (recursion level 2), work, exit, return.
	holdClass := classfile.NewClass("or/Hold").
		Method("hold", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).MonitorEnter()
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).Const(5000).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ALoad(0).MonitorExit()
			a.Const(7).IReturn()
		}).MustBuild()
	contend := classfile.NewClass("or/Want").
		Method("run", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).MonitorEnter()
			a.ALoad(0).MonitorExit()
			a.Const(42).IReturn()
		}).MustBuild()
	if err := other.Loader().DefineAll([]*classfile.Class{holdClass, contend}); err != nil {
		t.Fatal(err)
	}
	victim.Loader().AddDelegate(other.Loader())
	if err := victim.Loader().DefineAll([]*classfile.Class{enterAndCall}); err != nil {
		t.Fatal(err)
	}
	spawn := func(iso *core.Isolate, cls, method string) *interp.Thread {
		c, err := iso.Loader().Lookup(cls)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.LookupMethod(method, "(Ljava/lang/Object;)I")
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(cls, iso, m, []heap.Value{heap.RefVal(shared)})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	holder := spawn(victim, "vr/Main", "run")
	waiter := spawn(other, "or/Want", "run")
	// Let the holder enter twice and settle into the survivor's loop,
	// with the waiter blocked on the monitor.
	vm.Run(3_000)
	if err := vm.KillIsolate(nil, victim); err != nil {
		t.Fatal(err)
	}
	res := vm.Run(1_000_000)
	if !res.AllDone {
		t.Fatalf("run did not finish after the kill: %+v", res)
	}
	// The surviving frame's critical section stayed intact: its own
	// monitorexit succeeded (no IllegalMonitorState), and the holder
	// died only when control returned into the killed frame.
	if f := holder.FailureString(); f == "" || !strings.Contains(f, "StoppedIsolateException") {
		t.Fatalf("holder failure = %q, want StoppedIsolateException (an IllegalMonitorState here means the kill broke the survivor's recursion level)", f)
	}
	if waiter.Failure() != nil || waiter.Result().I != 42 {
		t.Fatalf("waiter: failure=%v result=%d, want clean 42", waiter.FailureString(), waiter.Result().I)
	}
}

func TestIncrementalGCBarrierStress(t *testing.T) {
	for round := 0; round < 2; round++ {
		// Small heap + 50% threshold: the churn opens background cycles
		// continuously, and still forces GC-on-pressure exact
		// collections on top of the admin cycle below.
		vm := interp.NewVM(interp.Options{
			Mode:               core.ModeIsolated,
			HeapLimit:          256 << 10,
			GCThresholdPercent: 50,
			GCMarkStride:       64,
		})
		syslib.MustInstall(vm)
		objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
		if err != nil {
			t.Fatal(err)
		}

		var threads []*interp.Thread
		var isolates []*core.Isolate
		var victim *core.Isolate
		var shared *heap.Object
		for k := 0; k < gcStressIsolates; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("gcbundle%d", k))
			if err != nil {
				t.Fatal(err)
			}
			isolates = append(isolates, iso)
			if k == 0 {
				// The shared graph spine, charged to bundle0 and pinned
				// so it stays a root past the run for the soundness walk.
				shared, err = vm.AllocArrayIn(nil, objClass, gcStressIsolates*gcStressSlotsEach, iso)
				if err != nil {
					t.Fatal(err)
				}
				vm.Pin(iso.ID(), shared)
			}
			if k == 1 {
				victim = iso
			}
			prefix := fmt.Sprintf("gcs%d", k)
			if err := iso.Loader().DefineAll(gcStressClasses(prefix)); err != nil {
				t.Fatal(err)
			}
			c, err := iso.Loader().Lookup(prefix + "/Main")
			if err != nil {
				t.Fatal(err)
			}
			m, err := c.LookupMethod("run", "(Ljava/lang/Object;II)I")
			if err != nil {
				t.Fatal(err)
			}
			th, err := vm.SpawnThread(prefix, iso, m, []heap.Value{
				heap.RefVal(shared),
				heap.IntVal(int64(k * gcStressSlotsEach)),
				heap.IntVal(gcStressIters),
			})
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
				switch i % 3 {
				case 0:
					// Exact collection racing the open cycle (abandon path).
					vm.CollectGarbage(nil)
				case 1:
					// Host-initiated cycle start racing worker-driven ones.
					vm.StartIncrementalCycle()
				default:
					// Interrupt storm across all threads (running threads
					// just get the flag; monitor-blocked ones are not
					// interruptible, as in the JVM).
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
		res := sched.Run(vm, 4, 0)
		close(stop)
		wg.Wait()
		if !res.AllDone {
			t.Fatalf("round %d: run did not finish: %+v", round, res)
		}

		var wantBytes int64 = -1
		for k, th := range threads {
			if th.Err() != nil {
				t.Fatalf("round %d gcbundle%d: host error %v", round, k, th.Err())
			}
			if k == 1 {
				continue // victim: finished or killed, both legal
			}
			if th.Failure() != nil {
				t.Fatalf("round %d gcbundle%d: guest failure %v", round, k, th.FailureString())
			}
			if th.Result().I != gcStressIters {
				t.Fatalf("round %d gcbundle%d: result %d, want %d", round, k, th.Result().I, gcStressIters)
			}
			b := vm.SnapshotOf(isolates[k]).AllocatedBytes
			if k == 0 {
				b -= shared.Size() // bundle0 additionally owns the spine
			}
			if wantBytes == -1 {
				wantBytes = b
			} else if b != wantBytes {
				t.Fatalf("round %d gcbundle%d: allocated bytes %d, want %d", round, k, b, wantBytes)
			}
		}

		// Sweep soundness: nothing reachable through the pinned shared
		// graph was ever swept — before AND after a final exact
		// collection.
		checkGraph := func(when string) {
			if shared.Dead() {
				t.Fatalf("round %d (%s): the pinned shared spine was swept", round, when)
			}
			for i := range shared.Elems {
				if r := shared.Elems[i].R; r != nil && r.Dead() {
					t.Fatalf("round %d (%s): live object in shared slot %d was swept", round, when, i)
				}
			}
		}
		checkGraph("post-run")
		final := vm.CollectGarbage(nil)
		checkGraph("post-final-collect")

		// Reservation-counter soundness: the shared atomic counter equals
		// exactly the live bytes after an exact collection.
		if used := vm.Heap().Used(); used != final.LiveBytes {
			t.Fatalf("round %d: used %d != live %d after final collection", round, used, final.LiveBytes)
		}
		// The run must really have exercised the incremental machinery.
		if cycles := vm.Heap().IncrementalCycles(); cycles < 2 {
			t.Fatalf("round %d: only %d incremental cycles ran", round, cycles)
		}
		if vm.Heap().BarrierRecords() == 0 {
			t.Fatalf("round %d: no SATB barrier records were taken", round)
		}
		if vm.Heap().GCCount() < 3 {
			t.Fatalf("round %d: expected several collections, got %d", round, vm.Heap().GCCount())
		}
	}
}
