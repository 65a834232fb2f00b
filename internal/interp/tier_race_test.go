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

// This file stress-tests the closure tier's concurrent promotion
// protocol under -race: one method body shared by every shard (its
// classes live in a registry loader owned by no isolate, so calls do not
// migrate and all workers execute the same bytecode.PCode), a promotion
// threshold low enough that several workers cross it in the same few
// quanta, and an admin goroutine storming exact collections, incremental
// cycle starts, interrupts and a mid-run kill. The contended surfaces:
// TierState.AddHeat, the build-then-CAS publication of the closure
// program (first winner publishes, losers adopt), per-frame adoption at activation and quantum boundaries, and
// deopt interleaving with stop-the-world phases.

const (
	tierRaceIsolates = 8
	tierRaceIters    = 1500
)

// tierRaceClasses builds the shared bundle: helper(x) = x*5 - 7 (its own
// promotion races once per call site activation) and
// spin(n) = n iterations of group-shaped arithmetic through helper.
func tierRaceClasses() []*classfile.Class {
	shared := classfile.NewClass("tier/Shared").
		Method("helper", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(5).IMul().Const(7).ISub().IReturn()
		}).
		Method("spin", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// Locals: 0 n, 1 acc, 2 i. The loop body compiles into
			// load/load/if_icmp, load/const/op/store, load/load/op/store
			// and iinc+goto combined micros in the promoted closure blocks.
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ILoad(1).Const(3).IAdd().IStore(1)
			a.ILoad(1).ILoad(2).IXor().IStore(1)
			a.ILoad(1).InvokeStatic("tier/Shared", "helper", "(I)I").IStore(1)
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()
	return []*classfile.Class{shared}
}

// tierRaceExpected is the Go-side oracle of spin(n).
func tierRaceExpected(n int64) int64 {
	var acc int64
	for i := int64(0); i < n; i++ {
		acc += 3
		acc ^= i
		acc = acc*5 - 7
	}
	return acc
}

func TestTierPromotionRaceStress(t *testing.T) {
	want := tierRaceExpected(tierRaceIters)
	for round := 0; round < 2; round++ {
		vm := interp.NewVM(interp.Options{
			Mode: core.ModeIsolated,
			// Low threshold: every shard's first quantum inside spin
			// crosses it, so promotion builds race instead of one early
			// winner publishing before anyone else warms up.
			TierPromoteThreshold: 64,
			HeapLimit:            256 << 10,
			GCThresholdPercent:   50,
			GCMarkStride:         64,
		})
		syslib.MustInstall(vm)
		sharedLoader := vm.Registry().NewLoader("tier-shared")
		if err := sharedLoader.DefineAll(tierRaceClasses()); err != nil {
			t.Fatal(err)
		}
		c, err := sharedLoader.Lookup("tier/Shared")
		if err != nil {
			t.Fatal(err)
		}
		spin, err := c.LookupMethod("spin", "(I)I")
		if err != nil {
			t.Fatal(err)
		}

		var threads []*interp.Thread
		var victim *core.Isolate
		for k := 0; k < tierRaceIsolates; k++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("tierbundle%d", k))
			if err != nil {
				t.Fatal(err)
			}
			if k == 1 {
				victim = iso
			}
			th, err := vm.SpawnThread(fmt.Sprintf("tier%d", k), iso, spin,
				[]heap.Value{heap.IntVal(tierRaceIters)})
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
					vm.CollectGarbage(nil)
				case 1:
					vm.StartIncrementalCycle()
				default:
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

		for k, th := range threads {
			if k == 1 {
				continue // the victim died with its isolate
			}
			if th.Failure() != nil || th.Err() != nil {
				t.Fatalf("round %d: thread %d failed: %v / %v",
					round, k, th.FailureString(), th.Err())
			}
			if got := th.Result().I; got != want {
				t.Fatalf("round %d: thread %d = %d, want %d", round, k, got, want)
			}
		}

		// The contention under test really happened: the shared body was
		// promoted, and its closure program carries combined group micros.
		requireLiveGroups(t, spin, bytecode.PModeIsolated)
	}
}
