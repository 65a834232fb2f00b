package interp_test

import (
	"errors"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// TestRefusedConnectionNotCounted: a connection the heap refuses was never
// opened. ConnectionsOpened counts connection objects the isolate created,
// so a Connection.open that throws OutOfMemoryError counts nothing, and
// neither do the allocation totals.
func TestRefusedConnectionNotCounted(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 64 << 10})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("opener")
	if err != nil {
		t.Fatal(err)
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.AllocNativeIn(nil, objClass, struct{}{}, 2*vm.Heap().Limit(), true, iso)
	if !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("oversized connection: %v, want heap.ErrOutOfMemory", err)
	}
	if a := iso.Account().Numbers(); a.ConnectionsOpened != 0 || a.AllocatedObjects != 0 {
		t.Errorf("after a refused open: ConnectionsOpened %d, AllocatedObjects %d, want 0 and 0", a.ConnectionsOpened, a.AllocatedObjects)
	}
	if _, err := vm.AllocNativeIn(nil, objClass, struct{}{}, 64, true, iso); err != nil {
		t.Fatal(err)
	}
	if a := iso.Account().Numbers(); a.ConnectionsOpened != 1 || a.AllocatedObjects != 1 {
		t.Errorf("after one open: ConnectionsOpened %d, AllocatedObjects %d, want 1 and 1", a.ConnectionsOpened, a.AllocatedObjects)
	}
}

// TestHostAllocationChargesCreator: the heap charges no isolate, so the
// host path (no executing thread) is charged by the interpreter, to the
// isolate it allocates for, at the modelled size — in Isolated mode. The
// Shared baseline (§4.2) charges no objects or bytes, and counts opened
// connections in both modes.
func TestHostAllocationChargesCreator(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeIsolated, core.ModeShared} {
		t.Run(mode.String(), func(t *testing.T) {
			vm := interp.NewVM(interp.Options{Mode: mode})
			syslib.MustInstall(vm)
			iso, err := vm.NewIsolate("creator")
			if err != nil {
				t.Fatal(err)
			}
			objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
			if err != nil {
				t.Fatal(err)
			}
			before := iso.Account().Numbers()
			obj, err := vm.AllocArrayIn(nil, objClass, 2, iso)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.AllocNativeIn(nil, objClass, struct{}{}, 64, true, iso); err != nil {
				t.Fatal(err)
			}
			if obj.Creator != iso.ID() {
				t.Errorf("creator = %d, want %d", obj.Creator, iso.ID())
			}
			a := iso.Account().Numbers()
			wantObjs, wantBytes := int64(2), obj.Size()+heap.ObjectHeaderBytes+64
			if mode == core.ModeShared {
				wantObjs, wantBytes = 0, 0
			}
			if got := a.AllocatedObjects - before.AllocatedObjects; got != wantObjs {
				t.Errorf("AllocatedObjects charged %d, want %d", got, wantObjs)
			}
			if got := a.AllocatedBytes - before.AllocatedBytes; got != wantBytes {
				t.Errorf("AllocatedBytes charged %d, want %d", got, wantBytes)
			}
			if got := a.ConnectionsOpened - before.ConnectionsOpened; got != 1 {
				t.Errorf("ConnectionsOpened counted %d, want 1", got)
			}
		})
	}
}

// nopHooks are scheduler hooks that do nothing: a test scheduler embeds
// them to observe only the stops.
type nopHooks struct{}

func (nopHooks) ThreadSpawned(*interp.Thread)  {}
func (nopHooks) ThreadUnparked(*interp.Thread) {}
func (nopHooks) ThreadsChanged()               {}
func (nopHooks) IsolateCreated(*core.Isolate)  {}
func (nopHooks) IsolateFreed(*core.Isolate)    {}

// byteObserver is a test scheduler that reads an isolate's allocated
// bytes as each stop begins: what a stopped-world observer (the
// collection) sees. Attached to a sequential VM it also replaces the
// sequential safepoint's own flush, so what it reads is what the
// allocation path flushed before it asked for the stop.
type byteObserver struct {
	nopHooks
	vm    *interp.VM
	iso   *core.Isolate
	bytes []int64
}

func (o *byteObserver) StopTheWorld(fn func()) {
	o.bytes = append(o.bytes, o.iso.Account().AllocatedBytes.Load())
	fn()
}

// TestPressureCollectionSeesExactBytes: an engine allocation that finds
// the heap exhausted flushes its batched byte accounts before it asks for
// the collection, so the stopped world sees every object the quantum
// allocated before the refused one.
func TestPressureCollectionSeesExactBytes(t *testing.T) {
	const small, bigLen = 10, 1024
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10, GCThresholdPercent: -1})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("allocator")
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("ap/Press").
		Method("run", "()I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			for i := 0; i < small; i++ {
				a.New(interp.ClassObject).Pop()
			}
			a.Const(bigLen).NewArray("").ArrayLength().IReturn()
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("run", "()I")
	if err != nil {
		t.Fatal(err)
	}
	// Garbage up to a little under one domain chunk of room: the small
	// objects fit, the array does not until a collection has run.
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	h := vm.Heap()
	for h.Limit()-h.Used() >= 4096 {
		if _, err := h.AllocObject(objClass, 0); err != nil {
			t.Fatal(err)
		}
	}
	obs := &byteObserver{vm: vm, iso: iso}
	vm.Attach(obs)
	defer vm.Attach(nil)
	before := iso.Account().AllocatedBytes.Load()
	v, th, err := vm.CallRoot(iso, m, nil, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("run: %v / %s", err, th.FailureString())
	}
	if v.I != bigLen {
		t.Fatalf("run() = %d, want %d", v.I, bigLen)
	}
	if len(obs.bytes) != 1 {
		t.Fatalf("%d stops, want the one pressure collection", len(obs.bytes))
	}
	smallBytes := int64(small * heap.ObjectHeaderBytes)
	if got := obs.bytes[0] - before; got != smallBytes {
		t.Errorf("the collection saw %d bytes charged, want the %d of the objects allocated before it", got, smallBytes)
	}
	if got, want := iso.Account().AllocatedBytes.Load()-before, smallBytes+heap.ObjectHeaderBytes+bigLen*heap.ValueSlotBytes; got != want {
		t.Errorf("%d bytes charged in all, want %d", got, want)
	}
}

// TestRootedAllocationAtomicWithCollection: a rooted host allocation and
// its root are one pinMu section, and exact collections hold pinMu across
// snapshot and sweep, so a collection running beside a stream of rooted
// allocations never sweeps one of them. With the root taken after the
// section, a collection that gets pinMu in between sweeps the object.
func TestRootedAllocationAtomicWithCollection(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("host")
	if err != nil {
		t.Fatal(err)
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	roots := vm.NewHostRoots(iso)
	defer roots.Release()
	done := make(chan struct{})
	collections := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				collections <- n
				return
			default:
				vm.CollectGarbage(nil)
				n++
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		if _, err := vm.AllocArrayRooted(roots, objClass, 1, iso); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	n := <-collections
	for i, o := range roots.Refs() {
		if o.Dead() {
			t.Fatalf("rooted allocation %d was swept (%d collections ran beside the allocations)", i, n)
		}
	}
	t.Logf("%d collections ran beside 5000 rooted allocations", n)
}

// TestSpawnPublishesFramesAtomically: a host goroutine spawns threads
// while another collects. A spawned thread is listed before its frames
// are built but stays Done, which the root scan skips, until the state
// flip publishes them; a thread that turned Runnable any earlier would
// have its frames read by the scan while the spawner writes them (the
// race detector reports it).
func TestSpawnPublishesFramesAtomically(t *testing.T) {
	const spawns = 1000
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("spawner")
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("ap/Entry").
		Method("run", "(Ljava/lang/Object;)I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IReturn()
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("run", "(Ljava/lang/Object;)I")
	if err != nil {
		t.Fatal(err)
	}
	arg, err := vm.NewStringObject(nil, iso, "entry argument")
	if err != nil {
		t.Fatal(err)
	}
	roots := vm.NewHostRoots(iso)
	roots.Add(arg)
	defer roots.Release()
	done := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case <-done:
				return
			default:
				vm.CollectGarbage(nil)
			}
		}
	}()
	for i := 0; i < spawns; i++ {
		if _, err := vm.SpawnThread("entry", iso, m, []heap.Value{heap.RefVal(arg)}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-collected
	if res := vm.Run(0); !res.AllDone {
		t.Fatalf("spawned threads did not finish: %+v", res)
	}
	for _, th := range vm.Threads() {
		if th.Result().I != 0 || th.Err() != nil {
			t.Fatalf("thread %d: result %d, err %v", th.ID(), th.Result().I, th.Err())
		}
	}
}
