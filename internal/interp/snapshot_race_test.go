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

// This file is the snapshot-subsystem companion of
// TestShardedAllocMonitorStress: an admin goroutine captures warmed-
// isolate snapshots, clones them, fingerprints and kills the clones and
// recycles their slots — all while 8 tenant shards keep mutating their
// per-isolate statics through the SATB write barrier on 4 workers, with
// an InterruptThread storm and a mid-run victim kill layered on top. The
// small heap keeps allocation-pressure collections in flight, so capture
// safepoints land inside incremental marking cycles.
//
// The test runs under -race in CI. Assertions: the run completes, every
// surviving tenant computes the exact closed-form result (captures are
// observers — a capture that perturbed a static, lost a barrier record,
// or wedged a safepoint would show up here), snapshots and clones were
// actually produced, clone slots were recycled, and the final collection
// leaves the reservation counter exactly equal to the live bytes.

const (
	snapStressIsolates = 8
	snapStressIters    = 2000
	snapStressKeep     = 32
	snapStressAdmin    = 24 // capture/clone rounds before the admin goes GC-only
)

// snapStressClasses builds the shared template bundle. Statics are
// per-isolate (mirrors), so one definition serves every tenant. run(I)I
// hammers all three static shapes the snapshot flattener walks: an int
// accumulator, a ref slot overwritten every iteration (SATB records the
// old value), and a kept ring of objects stored through the array
// barrier. No string literals: tenants are capture victims and later
// kill victims, and pooled strings would pin to them.
// Locals: 0 n, 1 i, 2 tmp.
func snapStressClasses() []*classfile.Class {
	const cn = "ss/Main"
	main := classfile.NewClass(cn).
		StaticField("sum", classfile.KindInt).
		StaticField("slot", classfile.KindRef).
		StaticField("ring", classfile.KindRef).
		Method("run", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(snapStressKeep).NewArray("").PutStatic(cn, "ring")
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			// Int static read-modify-write.
			a.GetStatic(cn, "sum").ILoad(1).IAdd().PutStatic(cn, "sum")
			// Ref static overwrite: the old array dies, the SATB barrier
			// must record it if a cycle is marking.
			a.Const(16).NewArray("").PutStatic(cn, "slot")
			// Kept allocation through the array-store barrier.
			a.New(classfile.ObjectClassName).Dup().
				InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").
				AStore(2)
			a.GetStatic(cn, "ring").ILoad(1).Const(snapStressKeep).IRem().
				ALoad(2).ArrayStore()
			a.IInc(1, 1).Goto("loop")
			a.Label("done").GetStatic(cn, "sum").IReturn()
		}).MustBuild()
	return []*classfile.Class{main}
}

// TestSnapshotCaptureUnderLoad: capture/clone/kill/recycle churn racing
// 8 static-mutating tenant shards, an interrupt storm, and a victim kill.
func TestSnapshotCaptureUnderLoad(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 4 << 20})
	syslib.MustInstall(vm)
	tl := vm.Registry().NewLoader("ss-template")
	if err := tl.DefineAll(snapStressClasses()); err != nil {
		t.Fatal(err)
	}

	var threads []*interp.Thread
	var tenants []*core.Isolate
	for k := 0; k < snapStressIsolates; k++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("tenant%d", k))
		if err != nil {
			t.Fatal(err)
		}
		iso.Loader().AddDelegate(tl)
		tenants = append(tenants, iso)
		c, err := iso.Loader().Lookup("ss/Main")
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.LookupMethod("run", "(I)I")
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(fmt.Sprintf("ss%d", k), iso, m,
			[]heap.Value{heap.IntVal(snapStressIters)})
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	victim := tenants[1]

	var captures, clones, recycled int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Administer only an attached run, and capture only tenants that
		// have run: a tenant's mirrors exist from its first static access.
		sched.AwaitStart(vm)
		for _, iso := range tenants {
			for iso.Account().Instructions.Load() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		killed := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i < snapStressAdmin {
				target := tenants[i%len(tenants)]
				snap, err := vm.CaptureSnapshot(target, interp.SnapshotOptions{})
				switch {
				case err != nil && !target.Killed():
					t.Errorf("capture %s: %v", target.Name(), err)
				case err == nil:
					captures++
					if snap.NumClasses() == 0 {
						t.Errorf("capture %s: empty snapshot", target.Name())
					}
					clone, cerr := vm.CloneIsolate(snap, fmt.Sprintf("ssclone%d", i))
					if cerr != nil {
						t.Errorf("clone %d: %v", i, cerr)
					} else {
						clones++
						_ = vm.ReachabilityFingerprint(clone)
						if kerr := vm.KillIsolate(nil, clone); kerr != nil {
							t.Errorf("kill clone %d: %v", i, kerr)
						}
						vm.CollectGarbage(nil)
						if clone.Disposed() {
							if ferr := vm.FreeIsolate(clone); ferr != nil {
								t.Errorf("free clone %d: %v", i, ferr)
							} else {
								recycled++
							}
						}
					}
					snap.Release()
				}
			} else {
				vm.CollectGarbage(nil)
			}
			if i == 4 && !killed {
				killed = true
				if err := vm.KillIsolate(nil, victim); err != nil {
					t.Errorf("kill victim: %v", err)
				}
			}
			if i%3 == 0 {
				for _, th := range threads {
					_ = vm.InterruptThread(th)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	res := sched.Run(vm, 4, 0)
	close(stop)
	wg.Wait()
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}

	want := int64(snapStressIters) * (snapStressIters - 1) / 2
	for k, th := range threads {
		if th.Err() != nil {
			t.Fatalf("tenant%d: host error %v", k, th.Err())
		}
		if k == 1 {
			continue // the kill victim may have died mid-loop; both fates are legal
		}
		if th.Failure() != nil {
			t.Fatalf("tenant%d: guest failure %v", k, th.FailureString())
		}
		if th.Result().I != want {
			t.Fatalf("tenant%d: result %d, want %d", k, th.Result().I, want)
		}
	}
	if captures == 0 || clones == 0 {
		t.Fatalf("admin produced no snapshot traffic: captures=%d clones=%d", captures, clones)
	}
	if recycled == 0 {
		t.Fatalf("no clone slots were recycled (captures=%d clones=%d)", captures, clones)
	}
	final := vm.CollectGarbage(nil)
	if used := vm.Heap().Used(); used != final.LiveBytes {
		t.Fatalf("used %d != live %d after final collection", used, final.LiveBytes)
	}
	if vm.Heap().GCCount() == 0 {
		t.Fatal("expected collections during the run")
	}
}
