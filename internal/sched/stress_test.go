package sched_test

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
)

// allocLoopClass builds a bundle workload that allocates continuously:
// every iteration allocates a 64-slot array and parks it in a 32-entry
// static ring (so some memory stays live and the rest becomes garbage,
// forcing accounting collections under a small heap). It catches
// OutOfMemoryError so allocation pressure slows it down rather than
// killing it; only isolate termination stops it.
func allocLoopClass(name string) *classfile.Class {
	return classfile.NewClass(name).
		StaticField("ring", classfile.KindRef).
		StaticField("i", classfile.KindInt).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(32).NewArray("").PutStatic(name, "ring")
			a.Label("loop")
			a.Label("try")
			a.GetStatic(name, "ring").
				GetStatic(name, "i").Const(32).IRem().
				Const(64).NewArray("").
				ArrayStore()
			a.Label("endtry")
			a.Goto("cont")
			a.Label("oom")
			a.Pop()
			a.Label("cont")
			a.GetStatic(name, "i").Const(1).IAdd().PutStatic(name, "i")
			a.Goto("loop")
			a.Handler("try", "endtry", "oom", "java/lang/OutOfMemoryError")
		}).MustBuild()
}

// TestConcurrentStressKillsUnderRace spawns 8 bundle isolates that
// allocate as fast as they can from a small shared heap while a
// concurrent admin goroutine kills them one by one mid-run — half the
// kills issued by Isolate0 (the rights-checked guest-kill path), half as
// host administrative kills — interleaved with accounting collections
// and snapshot reads. The run must terminate with every bundle killed,
// every thread dead, and (under -race) no data race anywhere in the
// heap, accounting, mirror, or termination machinery.
func TestConcurrentStressKillsUnderRace(t *testing.T) {
	const bundles = 8
	vm := newIsolatedVM(t, interp.Options{HeapLimit: 8 << 20})

	runtimeIso, err := vm.NewIsolate("runtime") // Isolate0, holds kill rights
	if err != nil {
		t.Fatal(err)
	}

	var isos []*core.Isolate
	var threads []*interp.Thread
	for i := 0; i < bundles; i++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("bundle%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cn := fmt.Sprintf("stress/Alloc%d", i)
		if err := iso.Loader().Define(allocLoopClass(cn)); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup(cn)
		m, _ := c.LookupMethod("attack", "()V")
		th, err := vm.SpawnThread(fmt.Sprintf("alloc%d", i), iso, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		isos = append(isos, iso)
		threads = append(threads, th)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var res interp.RunResult
	go func() {
		defer wg.Done()
		res = sched.Run(vm, 4, 0) // unlimited budget: only the kills end it
	}()

	sched.AwaitStart(vm)

	// Admin goroutine: kill every bundle mid-run, alternating between the
	// Isolate0-initiated path (rights check) and the host path, with
	// collections and snapshot reads mixed in — all racing the workers.
	for i, iso := range isos {
		time.Sleep(2 * time.Millisecond)
		killer := runtimeIso
		if i%2 == 1 {
			killer = nil
		}
		if err := vm.KillIsolate(killer, iso); err != nil {
			t.Errorf("kill %s: %v", iso.Name(), err)
		}
		if i%3 == 0 {
			vm.CollectGarbage(nil)
		}
		_ = vm.Snapshots()
	}
	wg.Wait()

	if !res.AllDone {
		t.Fatalf("run did not drain after all kills: %+v", res)
	}
	for i, th := range threads {
		if !th.Done() {
			t.Errorf("thread %d still %v after its isolate was killed", i, th.State())
		}
	}
	for _, iso := range isos {
		if !iso.Killed() {
			t.Errorf("isolate %s not killed", iso.Name())
		}
	}
	if len(res.PerIsolate) != bundles+1 {
		t.Fatalf("PerIsolate has %d entries, want %d", len(res.PerIsolate), bundles+1)
	}
	for _, ir := range res.PerIsolate {
		if ir.Name == "runtime" {
			continue
		}
		if !ir.Killed {
			t.Errorf("per-isolate result for %s not marked killed", ir.Name)
		}
		if ir.ThreadsRemaining != 0 {
			t.Errorf("%s still has %d threads", ir.Name, ir.ThreadsRemaining)
		}
	}

	// After the kills and a final collection, the bundles' retained rings
	// are unreachable and the heap drains.
	before := vm.Heap().Used()
	vm.CollectGarbage(nil)
	after := vm.Heap().Used()
	if after > before {
		t.Errorf("heap grew across the post-kill collection: %d -> %d", before, after)
	}
	for _, iso := range isos {
		if live := iso.Live().Bytes; live != 0 {
			t.Errorf("killed isolate %s still charged %d live bytes", iso.Name(), live)
		}
	}
}

// TestSequentialDeterminism asserts the sequential engine's results are
// bit-for-bit reproducible — the concurrency refactor (atomics, locks,
// batching) must not have perturbed cooperative scheduling. Two fresh
// VMs run an identical multi-isolate workload and must agree on the
// instruction count, the virtual clock, every thread result, and every
// per-isolate counter.
func TestSequentialDeterminism(t *testing.T) {
	type outcome struct {
		instrs  int64
		clock   int64
		results []int64
		snaps   []string
	}
	runOnce := func() outcome {
		vm := newIsolatedVM(t, interp.Options{})
		var threads []*interp.Thread
		for i := 0; i < 4; i++ {
			iso, err := vm.NewIsolate(fmt.Sprintf("iso%d", i))
			if err != nil {
				t.Fatal(err)
			}
			cn := fmt.Sprintf("det/Spin%d", i)
			if err := iso.Loader().Define(spinClasses(cn)); err != nil {
				t.Fatal(err)
			}
			c, _ := iso.Loader().Lookup(cn)
			m, _ := c.LookupMethod("run", "(I)I")
			th, err := vm.SpawnThread(fmt.Sprintf("spin%d", i), iso, m,
				[]heap.Value{heap.IntVal(int64(5_000 + i*97))})
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
		res := vm.Run(0)
		if !res.AllDone {
			t.Fatalf("sequential run did not finish: %+v", res)
		}
		out := outcome{instrs: res.Instructions, clock: vm.Clock()}
		for _, th := range threads {
			out.results = append(out.results, th.Result().I)
		}
		for _, s := range vm.Snapshots() {
			out.snaps = append(out.snaps, fmt.Sprintf("%s:%d:%d:%d",
				s.IsolateName, s.Instructions, s.CPUSamples, s.AllocatedBytes))
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if a.instrs != b.instrs || a.clock != b.clock {
		t.Fatalf("instruction/clock counts diverged: %+v vs %+v", a, b)
	}
	if fmt.Sprint(a.results) != fmt.Sprint(b.results) {
		t.Fatalf("thread results diverged: %v vs %v", a.results, b.results)
	}
	if fmt.Sprint(a.snaps) != fmt.Sprint(b.snaps) {
		t.Fatalf("per-isolate accounting diverged:\n%v\n%v", a.snaps, b.snaps)
	}
}
