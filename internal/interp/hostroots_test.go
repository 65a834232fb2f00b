package interp_test

import (
	"errors"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
)

// Tests of the host root registry: every host-held root is a HostRoots
// batch, shared batches charge their objects to the creator ahead of
// every isolate, and each host path registers and releases its batches
// in balance.

// holdClassName holds the static helpers the link legs dispatch into.
const holdClassName = "roots/Hold"

func holdClasses() []*classfile.Class {
	c := classfile.NewClass(holdClassName).
		// id(x): returns its argument.
		Method("id", "(Ljava/lang/Object;)Ljava/lang/Object;", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).AReturn()
		}).
		// hold(x, n): n empty iterations with x live in a local; returns n.
		Method("hold", "(Ljava/lang/Object;I)I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(2)
			a.Label("loop")
			a.ILoad(2).ILoad(1).IfICmpGe("done")
			a.IInc(2, 1)
			a.Goto("loop")
			a.Label("done")
			a.ILoad(2).IReturn()
		}).MustBuild()
	return []*classfile.Class{c}
}

// holdIsolate creates an isolate whose loader defines the hold helpers.
func holdIsolate(t *testing.T, vm *interp.VM, name string) *core.Isolate {
	t.Helper()
	iso, err := vm.NewIsolate(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(holdClasses()); err != nil {
		t.Fatal(err)
	}
	return iso
}

func holdMethod(t *testing.T, iso *core.Isolate, name, desc string) *classfile.Method {
	t.Helper()
	c, err := iso.Loader().Lookup(holdClassName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod(name, desc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// frozenGraph allocates a frozen two-array graph, arr -> child, created
// by iso. Nothing roots it on return: the caller roots arr before the
// next collection.
func frozenGraph(t *testing.T, vm *interp.VM, iso *core.Isolate) (arr, child *heap.Object) {
	t.Helper()
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	tmp := vm.NewHostRoots(iso)
	defer tmp.Release()
	if arr, err = vm.AllocArrayRooted(tmp, objClass, 4, iso); err != nil {
		t.Fatal(err)
	}
	if child, err = vm.AllocArrayRooted(tmp, objClass, 1, iso); err != nil {
		t.Fatal(err)
	}
	arr.Elems[0] = heap.RefVal(child)
	if err := heap.Freeze(arr); err != nil {
		t.Fatal(err)
	}
	return arr, child
}

// collectors are the two ways a collection runs: the exact pass and a
// whole incremental cycle (snapshot, mark steps, terminal phase).
var collectors = []struct {
	name string
	run  func(vm *interp.VM) error
}{
	{"exact", func(vm *interp.VM) error {
		vm.CollectGarbage(nil)
		return nil
	}},
	{"incremental", func(vm *interp.VM) error {
		if !vm.StartIncrementalCycle() {
			return errors.New("no cycle opened")
		}
		for !vm.GCMarkStep(64) {
		}
		if _, ok := vm.FinishIncrementalCycle(); !ok {
			return errors.New("no cycle to finish")
		}
		return nil
	}},
}

// TestSharedRootsChargeCreatorFirst: an object rooted in a shared batch
// is charged to its creator even when a lower-numbered isolate also
// holds it, by an exact collection and by an incremental cycle alike,
// and with its whole graph; it survives while any shared batch roots it
// and is swept once the last one is released. The link legs do the same
// for a zero-copy link's frozen payload in flight into a lower-numbered
// callee whose running frame holds it, with the caller's own roots
// dropped.
func TestSharedRootsChargeCreatorFirst(t *testing.T) {
	for _, col := range collectors {
		t.Run(col.name, func(t *testing.T) {
			vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
			syslib.MustInstall(vm)
			holder := holdIsolate(t, vm, "holder")
			creator := holdIsolate(t, vm, "creator")
			if holder.ID() >= creator.ID() {
				t.Fatalf("holder %d must be numbered below creator %d", holder.ID(), creator.ID())
			}
			arr, child := frozenGraph(t, vm, creator)
			shared, shared2 := vm.NewSharedRoots(), vm.NewSharedRoots()
			shared.Add(arr)
			shared2.Add(arr)
			held := vm.NewHostRoots(holder)
			held.Add(arr)
			if err := col.run(vm); err != nil {
				t.Fatal(err)
			}
			for _, o := range []*heap.Object{arr, child} {
				if o.Dead() {
					t.Fatal("shared graph swept while rooted")
				}
				if o.Charged != creator.ID() {
					t.Fatalf("shared graph charged to %d, want its creator %d (holder %d)", o.Charged, creator.ID(), holder.ID())
				}
			}

			held.Release()
			shared.Release()
			if err := col.run(vm); err != nil {
				t.Fatal(err)
			}
			if arr.Dead() || arr.Charged != creator.ID() {
				t.Fatalf("with one shared batch left: dead=%v charged to %d, want live and charged to %d", arr.Dead(), arr.Charged, creator.ID())
			}

			shared2.Release()
			if err := col.run(vm); err != nil {
				t.Fatal(err)
			}
			if !arr.Dead() || !child.Dead() {
				t.Fatalf("released graph not swept: arr=%v child=%v", arr.Dead(), child.Dead())
			}
		})
	}

	for _, col := range collectors {
		t.Run("link/"+col.name, func(t *testing.T) {
			vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
			syslib.MustInstall(vm)
			callee := holdIsolate(t, vm, "callee")
			caller := holdIsolate(t, vm, "caller")
			hub := rpc.NewHub(vm)
			defer hub.Close()
			link, err := hub.NewLink(caller, callee, holdMethod(t, callee, "hold", "(Ljava/lang/Object;I)I"),
				heap.Value{}, rpc.LinkOptions{ZeroCopy: true, CallBudget: 1 << 40})
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			arr, _ := frozenGraph(t, vm, caller)
			src := vm.NewHostRoots(caller)
			src.Add(arr)
			fut, err := link.CallAsync([]heap.Value{heap.RefVal(arr), heap.IntVal(1 << 30)})
			src.Release()
			if err != nil {
				t.Fatal(err)
			}
			// Collect once the call runs: the callee's frame holds the
			// payload as well as the request's shared batch.
			for hub.Stats().Calls == 0 {
				time.Sleep(time.Millisecond)
			}
			hub.Sync(func() { err = col.run(vm) })
			if err != nil {
				t.Fatal(err)
			}
			if arr.Dead() || arr.Charged != caller.ID() {
				t.Fatalf("payload in flight: dead=%v charged to %d, want live and charged to its creator %d (callee %d)",
					arr.Dead(), arr.Charged, caller.ID(), callee.ID())
			}
			link.Close()
			if _, err := fut.Wait(); !errors.Is(err, rpc.ErrLinkClosed) {
				t.Fatalf("cancelled call: %v, want ErrLinkClosed", err)
			}
			fut.Release()
		})
	}
}

// TestHostRootsBalance: the registered-batch count returns to its
// baseline after every host path that roots objects — OSGi register,
// unregister and bundle stop; a zero-copy and deep-copy link storm with
// copy-budget, closed-link and killed-callee failures; snapshot capture,
// a failed capture, a clone unwind and a release.
func TestHostRootsBalance(t *testing.T) {
	vm, warmer := snapVM(t)
	if got := snapCall(t, vm, warmer, 5); got != 32 {
		t.Fatalf("warm-up bump = %d, want 32", got)
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	f, err := osgi.NewFramework(vm)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.MustInstall(osgi.Manifest{Name: "owner", Version: "1.0.0"}, nil)
	if _, err := f.Start(owner); err != nil {
		t.Fatal(err)
	}
	// The storm's payloads, held by the caller for the whole test.
	payload := vm.NewHostRoots(warmer)
	defer payload.Release()
	frozen, _ := frozenGraph(t, vm, warmer)
	payload.Add(frozen)
	mixed, err := vm.AllocArrayRooted(payload, objClass, 2, warmer)
	if err != nil {
		t.Fatal(err)
	}
	mutable, err := vm.AllocArrayRooted(payload, objClass, 1, warmer)
	if err != nil {
		t.Fatal(err)
	}
	mixed.Elems[0], mixed.Elems[1] = heap.RefVal(frozen), heap.RefVal(mutable)

	base := vm.HostRootBatches()
	balanced := func(after string) {
		t.Helper()
		if n := vm.HostRootBatches(); n != base {
			t.Fatalf("%d host root batches registered after %s, want %d", n, after, base)
		}
	}

	// OSGi: a registry entry roots its service until it is unregistered
	// or its bundle stops.
	svc, err := vm.AllocObjectIn(nil, objClass, owner.Isolate())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Registry().Register("svc/a", svc, owner); err != nil {
		t.Fatal(err)
	}
	if n := vm.HostRootBatches(); n != base+1 {
		t.Fatalf("%d host root batches with a service registered, want %d", n, base+1)
	}
	f.Registry().Unregister("svc/a")
	balanced("Unregister")
	if err := f.Registry().Register("svc/b", svc, owner); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stop(owner); err != nil {
		t.Fatal(err)
	}
	balanced("a bundle stop")

	// Links: zero-copy and deep-copy calls, a copy that shares the frozen
	// array and then overruns its budget, calls cancelled by Close, and a
	// call into a callee killed under it.
	callee := holdIsolate(t, vm, "callee")
	victim := holdIsolate(t, vm, "victim")
	hub := rpc.NewHub(vm)
	newLink := func(to *core.Isolate, method, desc string, opts rpc.LinkOptions) *rpc.Link {
		t.Helper()
		l, err := hub.NewLink(warmer, to, holdMethod(t, to, method, desc), heap.Value{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	const idDesc, holdDesc = "(Ljava/lang/Object;)Ljava/lang/Object;", "(Ljava/lang/Object;I)I"
	zc := newLink(callee, "id", idDesc, rpc.LinkOptions{ZeroCopy: true})
	dc := newLink(callee, "id", idDesc, rpc.LinkOptions{})
	tight := newLink(callee, "id", idDesc, rpc.LinkOptions{ZeroCopy: true, CopyBudget: 2})
	long := newLink(callee, "hold", holdDesc, rpc.LinkOptions{ZeroCopy: true, CallBudget: 1 << 40})
	doomed := newLink(victim, "hold", holdDesc, rpc.LinkOptions{ZeroCopy: true, CallBudget: 1 << 40})

	var futs []*rpc.Future
	for i := 0; i < 32; i++ {
		for _, l := range []*rpc.Link{zc, dc} {
			fut, err := l.CallAsync([]heap.Value{heap.RefVal(frozen)})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
	}
	if _, err := tight.CallAsync([]heap.Value{heap.RefVal(mixed)}); !errors.Is(err, rpc.ErrCopyBudget) {
		t.Fatalf("over-budget copy: %v, want ErrCopyBudget", err)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		fut.Release()
	}
	balanced("a zero-copy and deep-copy link storm with a copy-budget failure")

	held := []heap.Value{heap.RefVal(frozen), heap.IntVal(1 << 30)}
	cancelled := make([]*rpc.Future, 3)
	for i := range cancelled {
		if cancelled[i], err = long.CallAsync(held); err != nil {
			t.Fatal(err)
		}
	}
	long.Close()
	for _, fut := range cancelled {
		if _, err := fut.Wait(); !errors.Is(err, rpc.ErrLinkClosed) {
			t.Fatalf("call cancelled by Close: %v, want ErrLinkClosed", err)
		}
		fut.Release()
	}
	if _, err := long.CallAsync(held); !errors.Is(err, rpc.ErrLinkClosed) {
		t.Fatalf("submission on a closed link: %v, want ErrLinkClosed", err)
	}
	balanced("calls cancelled by Close")

	fut, err := doomed.CallAsync(held)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	hub.Sync(func() { err = vm.KillIsolate(nil, victim) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Fatal("call into a killed callee succeeded")
	}
	fut.Release()
	if _, err := doomed.CallAsync(held); !errors.Is(err, rpc.ErrCalleeStopped) {
		t.Fatalf("submission to a killed callee: %v, want ErrCalleeStopped", err)
	}
	for _, l := range []*rpc.Link{zc, dc, tight, doomed} {
		l.Close()
	}
	hub.Close()
	balanced("calls into a killed callee")

	// Snapshots: a capture holds one shared batch until it is released; a
	// failed capture and a failed clone leave nothing behind.
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := vm.HostRootBatches(); n != base+1 {
		t.Fatalf("%d host root batches with a snapshot held, want %d", n, base+1)
	}
	m := appMirror(t, vm, warmer)
	origMsg := m.Mirror.Statics[2]
	bad, err := vm.AllocNativeIn(nil, m.Class, 42, 64, false, warmer)
	if err != nil {
		t.Fatal(err)
	}
	m.Mirror.Statics[2] = heap.RefVal(bad)
	if _, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{}); err == nil {
		t.Fatal("capture of an opaque native payload succeeded")
	}
	m.Mirror.Statics[2] = origMsg
	if n := vm.HostRootBatches(); n != base+1 {
		t.Fatalf("%d host root batches after a failed capture, want %d", n, base+1)
	}
	clone, err := vm.CloneIsolate(snap, "clone")
	if err != nil {
		t.Fatal(err)
	}
	if got := snapCall(t, vm, clone, 5); got != 37 {
		t.Fatalf("clone bump = %d, want 37", got)
	}
	vm.CollectGarbage(nil)
	filler := vm.NewHostRoots(warmer)
	for _, n := range []int{4096, 256, 16, 1} {
		for {
			if _, err := vm.AllocArrayRooted(filler, objClass, n, warmer); err != nil {
				break
			}
		}
	}
	if _, err := vm.CloneIsolate(snap, "oom-clone"); err == nil {
		t.Fatal("clone against a full heap succeeded")
	}
	filler.Release()
	if n := vm.HostRootBatches(); n != base+1 {
		t.Fatalf("%d host root batches after a clone unwind, want %d", n, base+1)
	}
	snap.Release()
	balanced("snapshot capture, a failed capture, a clone unwind and a release")
}
