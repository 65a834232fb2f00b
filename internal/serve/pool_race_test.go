package serve_test

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
	"ijvm/internal/serve"
	"ijvm/internal/syslib"
)

// This is the clone-pool companion of TestSnapshotCaptureUnderLoad: 8
// session-churn goroutines hammer Acquire / spawn-serve / (sometimes
// kill) / Release — which is CloneIsolate and FreeIsolate churn on the
// refiller — while 4 compute shards keep the scheduler workers busy
// mutating statics, a call-flood pair migrates one thread between two
// isolates on every call and return (the unlocked Thread.cur writes the
// refiller's FreeIsolate liveness scan must not race), an admin goroutine
// layers on collection and interrupt storms plus a mid-run victim kill,
// and a weight-1 keeper holds the run open. World-lock and reservation-counter contention on
// the clone path is exactly where ROADMAP says the scaling bugs hide;
// this runs under -race in CI.
//
// Assertions: every serve observes a fresh warmed clone (count starts
// at the captured value), surviving compute shards produce the exact
// closed-form result, sessions recycled, and after teardown the pin
// table is empty and the reservation counter equals live bytes.

const (
	poolStressChurners = 8
	poolStressSessions = 30
	poolStressShards   = 4
	poolStressIters    = 5000
)

func poolStressComputeClasses(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		StaticField("sum", classfile.KindInt).
		StaticField("slot", classfile.KindRef).
		Method("run", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.GetStatic(cn, "sum").ILoad(1).IAdd().PutStatic(cn, "sum")
			// Ref static overwrite keeps the SATB barrier and the
			// pressure collector busy under the clone churn.
			a.Const(16).NewArray("").PutStatic(cn, "slot")
			a.IInc(1, 1).Goto("loop")
			a.Label("done").GetStatic(cn, "sum").IReturn()
		}).MustBuild()
}

func TestClonePoolConcurrentChurn(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 16 << 20, MaxThreads: 512})
	syslib.MustInstall(vm)

	// Keeper first: Isolate0, weight 1, spin thread holds the run open.
	keeper, err := vm.NewIsolate("keeper")
	if err != nil {
		t.Fatal(err)
	}
	keeper.SetWeight(1)
	spin := classfile.NewClass("st/Keeper").
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").IInc(0, 1).Goto("loop")
		}).MustBuild()
	if err := keeper.Loader().Define(spin); err != nil {
		t.Fatal(err)
	}
	kc, _ := keeper.Loader().Lookup("st/Keeper")
	km, _ := kc.LookupMethod("attack", "()V")
	if _, err := vm.SpawnThread("keeper", keeper, km, nil); err != nil {
		t.Fatal(err)
	}

	// Call flood: a static call into a second isolate in an endless loop.
	flood, err := vm.NewIsolate("flood")
	if err != nil {
		t.Fatal(err)
	}
	floodPeer, err := vm.NewIsolate("flood-peer")
	if err != nil {
		t.Fatal(err)
	}
	if err := floodPeer.Loader().Define(classfile.NewClass("st/Peer").
		Method("ping", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).MustBuild()); err != nil {
		t.Fatal(err)
	}
	flood.Loader().AddDelegate(floodPeer.Loader())
	floodMain := classfile.NewClass("st/Flood").
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").ILoad(0).InvokeStatic("st/Peer", "ping", "(I)I").IStore(0).Goto("loop")
		}).MustBuild()
	if err := flood.Loader().Define(floodMain); err != nil {
		t.Fatal(err)
	}
	fm, _ := floodMain.LookupMethod("attack", "()V")
	if _, err := vm.SpawnThread("flood", flood, fm, nil); err != nil {
		t.Fatal(err)
	}

	// Warmed template + snapshot (count=6 at capture).
	tl := vm.Registry().NewLoader("st-template")
	if err := tl.DefineAll(poolClasses()); err != nil {
		t.Fatal(err)
	}
	wl := vm.Registry().NewLoader("st-warmer")
	warmer, err := vm.World().NewIsolate("st-warmer", wl)
	if err != nil {
		t.Fatal(err)
	}
	wl.AddDelegate(tl)
	app, _ := tl.Lookup(poolApp)
	serveM, _ := app.LookupMethod("serve", "(I)I")
	if _, th, err := vm.CallRoot(warmer, serveM, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil {
		t.Fatalf("warm-up: %v / %s", err, th.FailureString())
	}
	baseRoots := vm.HostRootBatches()
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}

	pool, err := serve.NewPool(vm, snap, serve.Config{Capacity: poolStressChurners, NamePrefix: "st"})
	if err != nil {
		t.Fatal(err)
	}

	// Compute shards: exact closed-form results prove the churn never
	// perturbs unrelated tenants.
	var shardThreads []*interp.Thread
	var shards []*core.Isolate
	for k := 0; k < poolStressShards; k++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("shard%d", k))
		if err != nil {
			t.Fatal(err)
		}
		cn := fmt.Sprintf("st/Compute%d", k)
		if err := iso.Loader().Define(poolStressComputeClasses(cn)); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup(cn)
		m, _ := c.LookupMethod("run", "(I)I")
		th, err := vm.SpawnThread(fmt.Sprintf("compute%d", k), iso, m,
			[]heap.Value{heap.IntVal(poolStressIters)})
		if err != nil {
			t.Fatal(err)
		}
		shardThreads = append(shardThreads, th)
		shards = append(shards, iso)
	}
	victim := shards[1]

	run := sched.Start(vm, sched.Config{Workers: 4, Policy: sched.PolicyProportional})

	// Admin storms: collections every round, interrupt storms every 3rd,
	// one victim kill.
	stop := make(chan struct{})
	var adminWG sync.WaitGroup
	adminWG.Add(1)
	go func() {
		defer adminWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vm.CollectGarbage(nil)
			if i == 5 {
				if err := vm.KillIsolate(nil, victim); err != nil {
					t.Errorf("kill victim: %v", err)
				}
			}
			if i%3 == 0 {
				for _, th := range shardThreads {
					_ = vm.InterruptThread(th)
				}
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	var churnWG sync.WaitGroup
	for g := 0; g < poolStressChurners; g++ {
		churnWG.Add(1)
		go func(g int) {
			defer churnWG.Done()
			for s := 0; s < poolStressSessions; s++ {
				var iso *core.Isolate
				for {
					got, err := pool.Acquire(nil)
					if err == nil {
						iso = got
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				arg := int64(g*poolStressSessions + s + 1)
				th, err := vm.SpawnThread(fmt.Sprintf("churn%d-%d", g, s), iso, serveM,
					[]heap.Value{heap.IntVal(arg)})
				if err != nil {
					t.Errorf("churn %d session %d spawn: %v", g, s, err)
					pool.Release(iso)
					continue
				}
				for !th.Done() {
					time.Sleep(20 * time.Microsecond)
				}
				if th.Failure() != nil || th.Err() != nil {
					t.Errorf("churn %d session %d: %v / %s", g, s, th.Err(), th.FailureString())
				} else if th.Result().I != 6+arg {
					t.Errorf("churn %d session %d: result %d, want %d (stale clone?)",
						g, s, th.Result().I, 6+arg)
				}
				if s%3 == 0 {
					// Exercise the caller-kills path; the pool must cope
					// with already-killed returns.
					if err := vm.KillIsolate(nil, iso); err != nil {
						t.Errorf("churn %d session %d kill: %v", g, s, err)
					}
				}
				pool.Release(iso)
			}
		}(g)
	}
	churnWG.Wait()

	// Let the surviving compute shards finish before tearing down.
	deadline := time.Now().Add(30 * time.Second)
	for _, th := range shardThreads {
		for !th.Done() && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stop)
	adminWG.Wait()
	vm.Shutdown()
	res := run.Wait()
	// The keeper spins forever by design, so the run always ends via
	// Shutdown preemption, never AllDone.
	if !res.Shutdown {
		t.Fatalf("run ended without shutdown: deadlocked=%v budget=%v", res.Deadlocked, res.BudgetExhausted)
	}

	want := int64(poolStressIters) * (poolStressIters - 1) / 2
	for k, th := range shardThreads {
		if k == 1 {
			continue // the victim may die mid-loop; both fates are legal
		}
		if th.Err() != nil {
			t.Fatalf("shard%d: host error %v", k, th.Err())
		}
		if th.Failure() != nil {
			t.Fatalf("shard%d: guest failure %v", k, th.FailureString())
		}
		if th.Result().I != want {
			t.Fatalf("shard%d: result %d, want %d", k, th.Result().I, want)
		}
	}

	st := pool.Stats()
	if st.Acquired != poolStressChurners*poolStressSessions {
		t.Fatalf("acquired %d, want %d", st.Acquired, poolStressChurners*poolStressSessions)
	}
	if st.Recycled == 0 || st.Cloned < poolStressChurners {
		t.Fatalf("pool never churned: %+v", st)
	}
	if in := floodPeer.Account().InterBundleCallsIn.Load(); in == 0 {
		t.Fatal("the call flood never migrated")
	}
	pool.Close()
	snap.Release()
	if n := vm.HostRootBatches(); n != baseRoots {
		t.Fatalf("%d host root batches registered after teardown, want %d", n, baseRoots)
	}
	final := vm.CollectGarbage(nil)
	if used := vm.Heap().Used(); used != final.LiveBytes {
		t.Fatalf("used %d != live %d after final collection", used, final.LiveBytes)
	}
	if vm.Heap().GCCount() == 0 {
		t.Fatal("expected collections during the run")
	}
}
