package interp_test

import (
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

const (
	snapApp  = "snap/App"
	snapNode = "snap/Node"
	snapMsg  = "warm-hello"
)

// snapClasses builds the warm-up class set of the snapshot tests: statics
// covering scalars, an array, an interned string, array aliasing, and a
// two-node reference cycle.
func snapClasses() []*classfile.Class {
	node := classfile.NewClass(snapNode).
		Field("next", classfile.KindRef).
		Field("v", classfile.KindInt).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).MustBuild()
	app := classfile.NewClass(snapApp).
		StaticField("count", classfile.KindInt).
		StaticField("table", classfile.KindRef).
		StaticField("msg", classfile.KindRef).
		StaticField("alias", classfile.KindRef).
		StaticField("ring", classfile.KindRef).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(7).PutStatic(snapApp, "count")
			// table = new[8]; table[i] = i*i
			a.Const(8).NewArray("").AStore(0)
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).Const(8).IfICmpGe("done")
			a.ALoad(0).ILoad(1).ILoad(1).ILoad(1).IMul().ArrayStore()
			a.IInc(1, 1)
			a.Goto("loop")
			a.Label("done")
			a.ALoad(0).PutStatic(snapApp, "table")
			a.GetStatic(snapApp, "table").PutStatic(snapApp, "alias")
			a.Str(snapMsg).PutStatic(snapApp, "msg")
			// ring: two nodes referencing each other
			a.New(snapNode).Dup().InvokeSpecial(snapNode, classfile.InitName, "()V").AStore(2)
			a.New(snapNode).Dup().InvokeSpecial(snapNode, classfile.InitName, "()V").AStore(3)
			a.ALoad(2).ALoad(3).PutField(snapNode, "next")
			a.ALoad(3).ALoad(2).PutField(snapNode, "next")
			a.ALoad(2).Const(11).PutField(snapNode, "v")
			a.ALoad(2).PutStatic(snapApp, "ring")
			a.Return()
		}).
		// bump(x): count += x; return count + table[3] + ring.v
		Method("bump", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.GetStatic(snapApp, "count").ILoad(0).IAdd().PutStatic(snapApp, "count")
			a.GetStatic(snapApp, "count").
				GetStatic(snapApp, "table").Const(3).ArrayLoad().IAdd().
				GetStatic(snapApp, "ring").GetField(snapNode, "v").IAdd().
				IReturn()
		}).MustBuild()
	return []*classfile.Class{node, app}
}

// snapVM builds an isolated VM with the template-loader pattern: classes
// live in an isolate-less loader, the warmer isolate delegates to it.
func snapVM(t *testing.T) (*interp.VM, *core.Isolate) {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 8 << 20})
	syslib.MustInstall(vm)
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	tl := vm.Registry().NewLoader("template")
	if err := tl.DefineAll(snapClasses()); err != nil {
		t.Fatal(err)
	}
	warmer, err := vm.NewIsolate("warmer")
	if err != nil {
		t.Fatal(err)
	}
	warmer.Loader().AddDelegate(tl)
	return vm, warmer
}

func snapCall(t *testing.T, vm *interp.VM, iso *core.Isolate, arg int64) int64 {
	t.Helper()
	c, err := iso.Loader().Lookup(snapApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("bump", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("bump(%d): %v / %s", arg, err, th.FailureString())
	}
	return v.I
}

// TestSnapshotCloneBasics proves the core clone contract: statics arrive
// initialized (no <clinit> replay), aliasing and cycles survive, the
// interned pool is shared by pointer, mutations stay private, and the
// clone's whole account (allocation totals included) and reachability
// fingerprint are byte-identical to the template's at capture. Live usage
// is not part of the account: a clone reads zero until its first
// collection.
func TestSnapshotCloneBasics(t *testing.T) {
	vm, warmer := snapVM(t)
	// Warm: clinit (count=7) + bump(5) -> count=12; bump returns 12+9+11.
	if got := snapCall(t, vm, warmer, 5); got != 32 {
		t.Fatalf("warm bump = %d, want 32", got)
	}
	vm.CollectGarbage(nil)
	if warmer.Live().Objects == 0 {
		t.Fatal("the warmed template holds nothing live")
	}
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	wantAccount := warmer.Account().Numbers()
	if wantAccount.AllocatedObjects == 0 || wantAccount.AllocatedBytes == 0 {
		t.Fatalf("the warm-up charged no allocations: %+v", wantAccount)
	}
	wantFP := vm.ReachabilityFingerprint(warmer)

	clone, err := vm.CloneIsolate(snap, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if got := clone.Account().Numbers(); got != wantAccount {
		t.Fatalf("clone account = %+v, want %+v", got, wantAccount)
	}
	if got := vm.SnapshotOf(clone); got.LiveObjects != 0 || got.LiveBytes != 0 {
		t.Fatalf("clone reads live usage %d objects / %d bytes before any collection, want 0", got.LiveObjects, got.LiveBytes)
	}
	if got := vm.ReachabilityFingerprint(clone); got != wantFP {
		t.Fatalf("clone fingerprint = %x, want %x", got, wantFP)
	}

	// The interned pool is shared by pointer.
	wObj, ok1 := warmer.InternedString(snapMsg)
	cObj, ok2 := clone.InternedString(snapMsg)
	if !ok1 || !ok2 || wObj != cObj {
		t.Fatalf("pool sharing broken: %v %v %p %p", ok1, ok2, wObj, cObj)
	}

	// Aliasing is preserved, but the array is a private copy.
	var cloneMirror *core.TaskClassMirror
	for _, e := range vm.World().MirrorEntries(clone) {
		if e.Class.Name == snapApp {
			cloneMirror = e.Mirror
		}
	}
	if cloneMirror == nil {
		t.Fatal("clone has no App mirror")
	}
	table, alias := cloneMirror.Statics[1].R, cloneMirror.Statics[3].R
	if table == nil || table != alias {
		t.Fatalf("alias not preserved: %p %p", table, alias)
	}
	var warmMirror *core.TaskClassMirror
	for _, e := range vm.World().MirrorEntries(warmer) {
		if e.Class.Name == snapApp {
			warmMirror = e.Mirror
		}
	}
	if warmMirror.Statics[1].R == table {
		t.Fatal("an unfrozen table should be a private copy")
	}

	// No <clinit> replay: count is 12, not 7. Mutations are private.
	if got := snapCall(t, vm, clone, 0); got != 32 {
		t.Fatalf("clone bump(0) = %d, want 32", got)
	}
	if got := snapCall(t, vm, clone, 10); got != 42 {
		t.Fatalf("clone bump(10) = %d, want 42", got)
	}
	if got := snapCall(t, vm, warmer, 0); got != 32 {
		t.Fatalf("template affected by clone mutation: %d", got)
	}
}

// TestSnapshotRecycle kills a clone, disposes it, returns it to the pool,
// and proves the next clone reuses the ID with a clean slate.
func TestSnapshotRecycle(t *testing.T) {
	vm, warmer := snapVM(t)
	snapCall(t, vm, warmer, 5)
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	clone, err := vm.CloneIsolate(snap, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	firstID := clone.ID()
	snapCall(t, vm, clone, 100)

	if err := vm.FreeIsolate(clone); err == nil {
		t.Fatal("free of a live isolate must fail")
	}
	if err := vm.KillIsolate(nil, clone); err != nil {
		t.Fatal(err)
	}
	vm.CollectGarbage(nil)
	if !clone.Disposed() {
		t.Fatalf("clone not disposed: %s", clone.State())
	}
	if err := vm.FreeIsolate(clone); err != nil {
		t.Fatal(err)
	}
	if err := vm.FreeIsolate(clone); err == nil {
		t.Fatal("double free must fail")
	}

	clone2, err := vm.CloneIsolate(snap, "tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	if clone2.ID() != firstID {
		t.Fatalf("ID not recycled: got %d, want %d", clone2.ID(), firstID)
	}
	// Clean slate: seeded account (not the killed tenant's), working
	// statics, no leaked mutations.
	if got := clone2.Account().Numbers(); got != warmer.Account().Numbers() {
		t.Fatalf("recycled account = %+v", got)
	}
	if got := snapCall(t, vm, clone2, 0); got != 32 {
		t.Fatalf("recycled clone bump(0) = %d, want 32", got)
	}
}

// TestSnapshotTemplateOwnedClasses proves the visibility contract: a live
// template that owns its classes cannot be cloned (clone frames would
// migrate into the template), but freeing the template first turns its
// loader into a template loader and cloning becomes legal.
func TestSnapshotTemplateOwnedClasses(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 8 << 20})
	syslib.MustInstall(vm)
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	owner, err := vm.NewIsolate("owner")
	if err != nil {
		t.Fatal(err)
	}
	// No string literals: interned strings would pin to the owner and
	// keep it undisposable while the snapshot lives.
	const cn = "own/C"
	c := classfile.NewClass(cn).
		StaticField("v", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(41).PutStatic(cn, "v").Return()
		}).
		Method("get", "()I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.GetStatic(cn, "v").Const(1).IAdd().PutStatic(cn, "v")
			a.GetStatic(cn, "v").IReturn()
		}).MustBuild()
	if err := owner.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, _ := c.LookupMethod("get", "()I")
	if v, th, err := vm.CallRoot(owner, m, nil, 1_000_000); err != nil || th.Failure() != nil || v.I != 42 {
		t.Fatalf("warm: %v %v", v, err)
	}
	snap, err := vm.CaptureSnapshot(owner, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if _, err := vm.CloneIsolate(snap, "tenant"); err == nil {
		t.Fatal("clone with live class-owning template must fail")
	}
	if err := vm.KillIsolate(nil, owner); err != nil {
		t.Fatal(err)
	}
	vm.CollectGarbage(nil)
	if err := vm.FreeIsolate(owner); err != nil {
		t.Fatal(err)
	}
	clone, err := vm.CloneIsolate(snap, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if v, th, err := vm.CallRoot(clone, m, nil, 1_000_000); err != nil || th.Failure() != nil || v.I != 43 {
		t.Fatalf("clone get = %v (err %v): want 43 (42 captured + 1)", v, err)
	}
}

// TestRestoreInPlaceShared proves the Shared-mode leg: RestoreInPlace
// rewinds the single isolate to the warm point, in place, so a session
// replays byte-identically.
func TestRestoreInPlaceShared(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeShared, HeapLimit: 8 << 20})
	syslib.MustInstall(vm)
	world, err := vm.NewIsolate("world")
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Loader().DefineAll(snapClasses()); err != nil {
		t.Fatal(err)
	}
	if got := snapCall(t, vm, world, 5); got != 32 {
		t.Fatalf("warm = %d", got)
	}
	snap, err := vm.CaptureSnapshot(world, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	vm.CollectGarbage(nil)
	wantFP := vm.ReachabilityFingerprint(world)

	// Dirty session.
	first := snapCall(t, vm, world, 100)
	if first != 132 {
		t.Fatalf("session#1 = %d", first)
	}
	if err := snap.RestoreInPlace(); err != nil {
		t.Fatal(err)
	}
	vm.CollectGarbage(nil)
	if got := vm.ReachabilityFingerprint(world); got != wantFP {
		t.Fatalf("post-restore fingerprint = %x, want %x", got, wantFP)
	}
	// Session replays identically.
	if got := snapCall(t, vm, world, 100); got != first {
		t.Fatalf("session#2 = %d, want %d", got, first)
	}
}

const (
	rsSuper = "rs/S"
	rsSub   = "rs/Sub"
	rsLog   = "rs/Log"
)

// rsClasses builds the restore case of TestInitDoneImpliesSupersDone.
// rs/S's <clinit> first touches its subclass rs/Sub — which initializes
// Sub completely while S is still being initialized — then sleeps forever
// when S.hold is set, and finally counts itself in rs/Log. Sub.probe()
// allocates a Sub and reads the count: 1 once S's <clinit> has run.
func rsClasses() []*classfile.Class {
	super := classfile.NewClass(rsSuper).StaticField("hold", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.GetStatic(rsSub, "z").Pop()
			a.GetStatic(rsSuper, "hold").IfEq("go")
			a.Const(0).InvokeStatic(interp.ClassThread, "sleep", "(I)V")
			a.Label("go").GetStatic(rsLog, "count").Const(1).IAdd().PutStatic(rsLog, "count")
			a.Return()
		}).MustBuild()
	sub := classfile.NewClass(rsSub).Super(rsSuper).StaticField("z", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(5).PutStatic(rsSub, "z").Return()
		}).
		Method("probe", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.New(rsSub).Pop().GetStatic(rsLog, "count").IReturn()
		}).MustBuild()
	log := classfile.NewClass(rsLog).StaticField("count", classfile.KindInt).MustBuild()
	return []*classfile.Class{super, sub, log}
}

// TestInitDoneImpliesSupersDone: the one-read initialization check takes
// an initialized class's supers as initialized, so a snapshot must never
// restore a class as initialized beside a super it restores
// uninitialized. Here the capture lands while rs/S's <clinit> sleeps and
// its subclass rs/Sub is already initialized; S restores uninitialized (a
// raced <clinit> reruns), so Sub must too — in an Isolated clone and in a
// Shared RestoreInPlace. Then the first `new Sub` runs S's <clinit>.
func TestInitDoneImpliesSupersDone(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeIsolated, core.ModeShared} {
		t.Run(mode.String(), func(t *testing.T) {
			vm := interp.NewVM(interp.Options{Mode: mode})
			syslib.MustInstall(vm)
			iso, err := vm.NewIsolate("template")
			if err != nil {
				t.Fatal(err)
			}
			classes := iso.Loader()
			if mode == core.ModeIsolated { // cloneable: classes in an isolate-less loader
				classes = vm.Registry().NewLoader("rs-template")
				iso.Loader().AddDelegate(classes)
			}
			if err := classes.DefineAll(rsClasses()); err != nil {
				t.Fatal(err)
			}
			super, _ := classes.Lookup(rsSuper)
			sub, _ := classes.Lookup(rsSub)
			vm.World().Mirror(super, iso).Statics[0] = heap.IntVal(1) // hold
			th, err := vm.SpawnThread("warm", iso, findMethod(t, sub, "probe"), nil)
			if err != nil {
				t.Fatal(err)
			}
			vm.Run(100_000)
			if th.State() != interp.StateSleeping ||
				vm.World().Mirror(super, iso).State != core.InitRunning || vm.World().Mirror(sub, iso).State != core.InitDone {
				t.Fatalf("warm-up: thread %v, S %v, Sub %v; want sleeping in S's <clinit> with Sub initialized",
					th.State(), vm.World().Mirror(super, iso).State, vm.World().Mirror(sub, iso).State)
			}
			snap, err := vm.CaptureSnapshot(iso, interp.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			target := iso
			if mode == core.ModeIsolated {
				if target, err = vm.CloneIsolate(snap, "clone"); err != nil {
					t.Fatal(err)
				}
			} else if err := snap.RestoreInPlace(); err != nil {
				t.Fatal(err)
			}
			for _, c := range []*classfile.Class{super, sub} {
				if m := vm.World().MirrorIfPresent(c, target); m == nil || m.State != core.InitDone {
					continue
				}
				for k := c.Super; k != nil; k = k.Super {
					if m := vm.World().MirrorIfPresent(k, target); m == nil || m.State != core.InitDone {
						t.Fatalf("%s restored initialized, its super %s not", c.Name, k.Name)
					}
				}
			}
			if got := callStatic(t, vm, target, sub, "probe").I; got != 1 {
				t.Fatalf("probe after restore = %d: S's <clinit> did not run", got)
			}
		})
	}
}
