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

// TestInstructionAccountingSumsToTotal: in isolated mode, the per-isolate
// instruction counters must partition the global counter exactly — every
// instruction is charged to exactly one isolate.
func TestInstructionAccountingSumsToTotal(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, Quantum: 137})
	syslib.MustInstall(vm)
	var isolates []*core.Isolate
	for _, name := range []string{"runtime", "a", "b", "c"} {
		iso, err := vm.NewIsolate(name)
		if err != nil {
			t.Fatal(err)
		}
		isolates = append(isolates, iso)
	}
	// Three bundles spin different amounts concurrently.
	for i, iso := range isolates[1:] {
		cn := "inv/W" + string(rune('0'+i))
		c := classfile.NewClass(cn).
			Method("work", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Const(0).IStore(1)
				a.Label("loop")
				a.ILoad(1).ILoad(0).IfICmpGe("done")
				a.IInc(1, 1).Goto("loop")
				a.Label("done")
				a.ILoad(1).IReturn()
			}).MustBuild()
		if err := iso.Loader().Define(c); err != nil {
			t.Fatal(err)
		}
		m, _ := c.LookupMethod("work", "(I)I")
		if _, err := vm.SpawnThread("w", iso, m, []heap.Value{heap.IntVal(int64(1000 * (i + 1)))}); err != nil {
			t.Fatal(err)
		}
	}
	res := vm.Run(0)
	if !res.AllDone {
		t.Fatalf("run = %+v", res)
	}
	var sum int64
	for _, iso := range isolates {
		sum += iso.Account().Instructions.Load()
	}
	if sum != vm.TotalInstructions() {
		t.Fatalf("per-isolate sum %d != total %d", sum, vm.TotalInstructions())
	}
	if res.Instructions != vm.TotalInstructions() {
		t.Fatalf("run result %d != total %d", res.Instructions, vm.TotalInstructions())
	}
}

// sumClasses are the programs of TestAllocationAccountingSumsToHeap, one
// copy per isolate: work(n, keep) allocates and drops n objects and n
// small arrays (the closure micros), then one sum/K, whose first new runs
// on the switch, which initializes it, and, when keep is set, retains a
// 16-slot array in a static.
func sumClasses() []*classfile.Class {
	static := classfile.FlagStatic | classfile.FlagPublic
	k := classfile.NewClass("sum/K").
		Field("v", classfile.KindInt).
		StaticField("inits", classfile.KindInt).
		Method(classfile.ClinitName, "()V", static, func(a *bytecode.Assembler) {
			a.GetStatic("sum/K", "inits").Const(1).IAdd().PutStatic("sum/K", "inits").Return()
		}).MustBuild()
	use := classfile.NewClass("sum/Use").
		StaticField("keep", classfile.KindRef).
		Method("work", "(II)I", static, func(a *bytecode.Assembler) {
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.New(interp.ClassObject).Pop()
			a.ILoad(2).Const(7).IAnd().NewArray("").Pop()
			a.IInc(2, 1).Goto("loop")
			a.Label("done").New("sum/K").Pop()
			a.ILoad(1).IfEq("out")
			a.Const(16).NewArray("").PutStatic("sum/Use", "keep")
			a.Label("out").ILoad(2).IReturn()
		}).MustBuild()
	return []*classfile.Class{k, use}
}

// TestAllocationAccountingSumsToHeap is the allocation counterpart of
// TestInstructionAccountingSumsToTotal: with no collection and no native
// growth, every object in the heap was charged to exactly one isolate at
// its modelled size, whichever path admitted it — closure micros, the
// switch's first executions, host allocation, rooted host
// allocation, on the sequential engine and on two workers — so the
// isolates' allocation totals sum to NumObjects() and Used(). After an
// exact collection, live usage sums to them the same way, and an isolate
// whose objects all died reads zero: one that never held anything at a
// collection, and one whose last survivors the next collection frees.
func TestAllocationAccountingSumsToHeap(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 20, GCThresholdPercent: -1, Quantum: 137})
	syslib.MustInstall(vm)
	if n := vm.Heap().NumObjects(); n != 0 {
		t.Fatalf("%d objects allocated before any isolate exists", n)
	}
	isos := make(map[string]*core.Isolate)
	work := make(map[string]*classfile.Method)
	for _, name := range []string{"runtime", "seq", "w1", "w2", "dead", "host"} {
		iso, err := vm.NewIsolate(name)
		if err != nil {
			t.Fatal(err)
		}
		classes := sumClasses()
		if err := iso.Loader().DefineAll(classes); err != nil {
			t.Fatal(err)
		}
		m, err := classes[1].LookupMethod("work", "(II)I")
		if err != nil {
			t.Fatal(err)
		}
		isos[name], work[name] = iso, m
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}

	// Host paths: plain, string and rooted, the rooted ones kept alive
	// through the collection below.
	host := isos["host"]
	roots := vm.NewHostRoots(host)
	defer roots.Release()
	for i := 0; i < 50; i++ {
		if _, err := vm.AllocObjectIn(nil, objClass, host); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AllocArrayIn(nil, objClass, i%5, host); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.NewStringObject(nil, host, fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AllocObjectRooted(roots, objClass, host); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.NewStringRooted(roots, "rooted", host); err != nil {
			t.Fatal(err)
		}
	}

	spawn := func(name string, n, keep int64) {
		t.Helper()
		if _, err := vm.SpawnThread(name, isos[name], work[name], []heap.Value{heap.IntVal(n), heap.IntVal(keep)}); err != nil {
			t.Fatal(err)
		}
	}
	spawn("seq", 700, 1)
	if res := vm.Run(0); !res.AllDone {
		t.Fatalf("sequential run = %+v", res)
	}
	spawn("w1", 900, 1)
	spawn("w2", 1100, 1)
	spawn("dead", 500, 0)
	if res := sched.Run(vm, 2, 0); !res.AllDone {
		t.Fatalf("2-worker run = %+v", res)
	}
	if vm.Heap().GCCount() != 0 {
		t.Fatalf("%d collections ran; the sums hold only without one", vm.Heap().GCCount())
	}

	var objs, bytes int64
	for _, s := range vm.Snapshots() {
		if s.IsolateName != "runtime" && s.AllocatedObjects == 0 {
			t.Errorf("%s charged no allocation", s.IsolateName)
		}
		objs += s.AllocatedObjects
		bytes += s.AllocatedBytes
	}
	if h := vm.Heap(); objs != int64(h.NumObjects()) || bytes != h.Used() {
		t.Fatalf("accounts sum to %d objects / %d bytes, the heap holds %d / %d", objs, bytes, h.NumObjects(), h.Used())
	}
	t.Logf("%d objects, %d bytes charged", objs, bytes)

	collect := func(retained []string, died string) {
		t.Helper()
		if res := vm.CollectGarbage(nil); res.FreedObjects == 0 {
			t.Fatal("the collection freed nothing")
		}
		var liveObjs, liveBytes int64
		for _, s := range vm.Snapshots() {
			liveObjs += s.LiveObjects
			liveBytes += s.LiveBytes
		}
		if h := vm.Heap(); liveObjs != int64(h.NumObjects()) || liveBytes != h.Used() {
			t.Fatalf("live usage sums to %d objects / %d bytes, the heap holds %d / %d", liveObjs, liveBytes, h.NumObjects(), h.Used())
		}
		for _, name := range retained {
			if s := vm.SnapshotOf(isos[name]); s.LiveObjects == 0 {
				t.Errorf("%s retained a graph but reads %d live objects", name, s.LiveObjects)
			}
		}
		if s := vm.SnapshotOf(isos[died]); s.LiveObjects != 0 || s.LiveBytes != 0 {
			t.Errorf("%s's objects all died, yet it reads %d live objects / %d bytes", died, s.LiveObjects, s.LiveBytes)
		}
	}
	collect([]string{"seq", "w1", "w2", "host"}, "dead")
	roots.Release()
	collect([]string{"seq", "w1", "w2"}, "host")
}

// TestFreedIsolateSnapshotConsistent: freeing a disposed isolate recycles
// its ID, not its history. Until the ID is reused, the corpse's snapshot
// reads exactly what it read before the free: its final account,
// allocation totals included, and no live usage.
func TestFreedIsolateSnapshotConsistent(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	tenant, err := vm.NewIsolate("tenant")
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("free/T").
		Method("churn", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.New(interp.ClassObject).Pop()
			a.IInc(1, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()
	if err := tenant.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("churn", "(I)I")
	if v, th, err := vm.CallRoot(tenant, m, []heap.Value{heap.IntVal(100)}, 1_000_000); err != nil || th.Failure() != nil || v.I != 100 {
		t.Fatalf("churn(100) = %d: %v / %v", v.I, err, th.Failure())
	}
	if err := vm.KillIsolate(nil, tenant); err != nil {
		t.Fatal(err)
	}
	vm.CollectGarbage(nil)
	if !tenant.Disposed() {
		t.Fatal("tenant not disposed after kill and collection")
	}
	before := vm.SnapshotOf(tenant)
	if before.AllocatedObjects < 100 || before.AllocatedBytes < 100*heap.ObjectHeaderBytes || before.Instructions == 0 {
		t.Fatalf("the tenant's account before the free: %+v", before)
	}
	if err := vm.FreeIsolate(tenant); err != nil {
		t.Fatal(err)
	}
	if after := vm.SnapshotOf(tenant); after != before {
		t.Fatalf("freed corpse reads %+v, before the free %+v", after, before)
	}
	snaps := vm.Snapshots()
	if corpse := snaps[tenant.ID()]; corpse != before {
		t.Fatalf("Snapshots lists the corpse as %+v, want %+v", corpse, before)
	}
}

// TestInterBundleCallSymmetry: calls-out summed over callers equals
// calls-in summed over callees.
func TestInterBundleCallSymmetry(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	svcIso, err := vm.NewIsolate("svc")
	if err != nil {
		t.Fatal(err)
	}
	svc := classfile.NewClass("sym/Svc").
		Method("f", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).MustBuild()
	if err := svcIso.Loader().Define(svc); err != nil {
		t.Fatal(err)
	}
	var drivers []*core.Isolate
	for i := 0; i < 3; i++ {
		iso, err := vm.NewIsolate("drv" + string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		iso.Loader().AddDelegate(svcIso.Loader())
		cn := "sym/D" + string(rune('0'+i))
		c := classfile.NewClass(cn).
			Method("loop", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Const(0).IStore(1).Const(0).IStore(2)
				a.Label("loop")
				a.ILoad(1).ILoad(0).IfICmpGe("done")
				a.ILoad(1).InvokeStatic("sym/Svc", "f", "(I)I").IStore(2)
				a.IInc(1, 1).Goto("loop")
				a.Label("done")
				a.ILoad(2).IReturn()
			}).MustBuild()
		if err := iso.Loader().Define(c); err != nil {
			t.Fatal(err)
		}
		m, _ := c.LookupMethod("loop", "(I)I")
		if _, err := vm.SpawnThread("drv", iso, m, []heap.Value{heap.IntVal(int64(100 * (i + 1)))}); err != nil {
			t.Fatal(err)
		}
		drivers = append(drivers, iso)
	}
	if res := vm.Run(0); !res.AllDone {
		t.Fatalf("run = %+v", res)
	}
	var out int64
	for _, iso := range drivers {
		out += iso.Account().InterBundleCallsOut.Load()
	}
	in := svcIso.Account().InterBundleCallsIn.Load()
	if out != in || out != 100+200+300 {
		t.Fatalf("calls out %d, in %d, want 600 each", out, in)
	}
}

// TestThreadPruningKeepsSchedulerCorrect: spawning many short-lived
// threads across repeated runs must not corrupt scheduling or accounting.
func TestThreadPruningKeepsSchedulerCorrect(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("pr/W").
		Method("one", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(1).IReturn()
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("one", "()I")
	for i := 0; i < 500; i++ {
		v, th, err := vm.CallRoot(iso, m, nil, 10_000)
		if err != nil || th.Failure() != nil || v.I != 1 {
			t.Fatalf("iteration %d: %v %v", i, err, v)
		}
	}
	if got := len(vm.Threads()); got > 300 {
		t.Fatalf("done threads not pruned: %d retained", got)
	}
	if vm.LiveThreads() != 0 {
		t.Fatalf("live threads = %d", vm.LiveThreads())
	}
}

// TestGCDuringDeepExecutionKeepsFrameRoots: a tiny heap forces
// collections while a deep recursive computation holds live references in
// many frames; nothing live may be swept.
func TestGCDuringDeepExecutionKeepsFrameRoots(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 64 << 10, MaxFrameDepth: 4096})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	const cn = "gc/Deep"
	// deep(n): allocates a 2-slot array holding the recursive result,
	// plus garbage, and checks the chain on the way back up.
	c := classfile.NewClass(cn).
		Method("deep", "(I)Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).IfGt("recurse")
			a.Const(2).NewArray("").AReturn()
			a.Label("recurse")
			// garbage pressure
			a.Const(64).NewArray("").Pop()
			a.Const(2).NewArray("").AStore(1)
			a.ALoad(1).Const(0).ILoad(0).Const(1).ISub().InvokeStatic(cn, "deep", "(I)Ljava/lang/Object;").ArrayStore()
			a.ALoad(1).AReturn()
		}).
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// Walk the returned chain and count its length.
			a.ILoad(0).InvokeStatic(cn, "deep", "(I)Ljava/lang/Object;").AStore(1)
			a.Const(0).IStore(2)
			a.Label("walk")
			a.ALoad(1).Const(0).ArrayLoad().IfNull("done")
			a.ALoad(1).Const(0).ArrayLoad().AStore(1)
			a.IInc(2, 1).Goto("walk")
			a.Label("done")
			a.ILoad(2).IReturn()
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("run", "(I)I")
	const depth = 200
	v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(depth)}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if th.Failure() != nil {
		t.Fatalf("uncaught: %s", th.FailureString())
	}
	if v.I != depth {
		t.Fatalf("chain length = %d, want %d (GC dropped live frame roots?)", v.I, depth)
	}
	if vm.Heap().GCCount() == 0 {
		t.Fatal("test expected allocation pressure to force collections")
	}
}
