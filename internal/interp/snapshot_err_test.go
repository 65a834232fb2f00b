package interp_test

import (
	"testing"

	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// Error-path regression tests for the snapshot/clone machinery: a failed
// CaptureSnapshot must leave the host root registry and the template's
// frozen bits exactly as it found them, and a failed CloneIsolate must
// return its consumed dense isolate ID and registry loader slot. Both
// paths run forever in a serving gateway (the clone pool retries
// failures), so any per-attempt leak is fatal at density.

// appMirror finds the snap/App mirror entry of iso.
func appMirror(t *testing.T, vm *interp.VM, iso *core.Isolate) core.MirrorEntry {
	t.Helper()
	for _, e := range vm.World().MirrorEntries(iso) {
		if e.Class.Name == snapApp {
			return e
		}
	}
	t.Fatalf("no %s mirror for %s", snapApp, iso.Name())
	return core.MirrorEntry{}
}

// TestCaptureFailureRestoresPinsAndFrozenBits forces CaptureSnapshot to
// fail mid-flatten (an opaque native payload parked in a static — the
// documented unsnapshotable shape) after the flattener has already
// rooted the string pool in the capture's shared batch and, once the host
// has frozen the statics table, rooted that table for sharing by pointer.
// The failed captures must release that batch and leave every frozen bit
// as it was: an unfrozen table stays unfrozen (capture freezes nothing)
// and a host-frozen one stays frozen. Afterwards the template must still
// capture, clone and serve, the clone sharing the frozen table.
func TestCaptureFailureRestoresPinsAndFrozenBits(t *testing.T) {
	vm, warmer := snapVM(t)
	if got := snapCall(t, vm, warmer, 5); got != 32 {
		t.Fatalf("warm-up bump = %d, want 32", got)
	}
	baseRoots := vm.HostRootBatches()

	snapA, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rootsA := vm.HostRootBatches()
	if rootsA != baseRoots+1 {
		t.Fatalf("good capture registered no shared batch: base=%d with-snapshot=%d", baseRoots, rootsA)
	}

	m := appMirror(t, vm, warmer)
	table := m.Mirror.Statics[1].R // statics order: count, table, msg, alias, ring
	origMsg := m.Mirror.Statics[2]
	bad, err := vm.AllocNativeIn(nil, m.Class, 42, 64, false, warmer)
	if err != nil {
		t.Fatal(err)
	}
	m.Mirror.Statics[2] = heap.RefVal(bad)

	if _, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{}); err == nil {
		t.Fatal("capture of opaque native payload succeeded")
	}
	if got := vm.HostRootBatches(); got != rootsA {
		t.Fatalf("failed capture leaked a root batch: %d, want %d", got, rootsA)
	}

	if table.Frozen() {
		t.Fatal("failed capture froze the statics table")
	}

	// Host-frozen leg: the flattener shares and roots the frozen table
	// before it reaches the poisoned msg slot; the failure must drop the
	// root and leave the bit the host set.
	if err := heap.Freeze(table); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{}); err == nil {
		t.Fatal("capture of opaque native payload beside a frozen table succeeded")
	}
	if got := vm.HostRootBatches(); got != rootsA {
		t.Fatalf("failed capture of a frozen table leaked a root batch: %d, want %d", got, rootsA)
	}
	if !table.Frozen() {
		t.Fatal("failed capture thawed the host-frozen statics table")
	}

	// The template must be fully serviceable after the failures.
	m.Mirror.Statics[2] = origMsg
	snapB, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatalf("capture after restored static: %v", err)
	}
	clone, err := vm.CloneIsolate(snapB, "after-fail")
	if err != nil {
		t.Fatal(err)
	}
	if got := appMirror(t, vm, clone).Mirror.Statics[1].R; got != table {
		t.Fatalf("clone's table %p is not the frozen template table %p", got, table)
	}
	if got := snapCall(t, vm, clone, 5); got != 37 {
		t.Fatalf("clone bump = %d, want 37", got)
	}

	// Releasing both snapshots must return the registry to its pre-test
	// state: pool strings are rooted by both snapshots' batches, and a
	// batch left by a failed capture would keep them alive past the final
	// release.
	snapB.Release()
	snapA.Release()
	if got := vm.HostRootBatches(); got != baseRoots {
		t.Fatalf("root batches after releasing all snapshots: %d, want %d", got, baseRoots)
	}
}

// TestCloneFailureReturnsIDAndLoader drives CloneIsolate into
// mid-materialization failure (heap exhausted by host-rooted filler) and
// asserts the attempt consumes nothing: the registry loader count, the
// world isolate table, and the dense-ID free list are all exactly as
// before, proven by the next successful clone adopting the same recycled
// ID a pre-failure clone used.
func TestCloneFailureReturnsIDAndLoader(t *testing.T) {
	vm, warmer := snapVM(t)
	if got := snapCall(t, vm, warmer, 5); got != 32 {
		t.Fatalf("warm-up bump = %d, want 32", got)
	}
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Establish a recycled slot: clone once, kill, sweep, free.
	probe, err := vm.CloneIsolate(snap, "probe")
	if err != nil {
		t.Fatal(err)
	}
	probeID := probe.ID()
	if err := vm.KillIsolate(nil, probe); err != nil {
		t.Fatal(err)
	}
	vm.CollectGarbage(nil)
	if !probe.Disposed() {
		t.Fatal("probe clone not disposed after sweep")
	}
	if err := vm.FreeIsolate(probe); err != nil {
		t.Fatal(err)
	}

	var runtimeIso *core.Isolate
	for _, iso := range vm.World().Isolates() {
		if iso.Name() == "runtime" {
			runtimeIso = iso
		}
	}
	if runtimeIso == nil {
		t.Fatal("no runtime isolate")
	}

	// Fill the heap to the brim with host-rooted arrays (descending
	// sizes, so even a one-element allocation fails afterwards). The
	// rooted filler survives the unwind's collections, keeping every
	// retry failing at materialization.
	vm.CollectGarbage(nil)
	arrClass := appMirror(t, vm, warmer).Mirror.Statics[1].R.Class
	filler := vm.NewHostRoots(runtimeIso)
	defer filler.Release()
	for _, n := range []int{4096, 256, 16, 1} {
		for {
			if _, err := vm.AllocArrayRooted(filler, arrClass, n, runtimeIso); err != nil {
				break
			}
		}
	}

	loaders := vm.Registry().NumLoaders()
	isolates := vm.World().NumIsolates()
	for i := 0; i < 3; i++ {
		if _, err := vm.CloneIsolate(snap, "oom-clone"); err == nil {
			t.Fatalf("clone %d against a full heap succeeded", i)
		}
		if got := vm.Registry().NumLoaders(); got != loaders {
			t.Fatalf("failed clone %d leaked a loader: %d, want %d", i, got, loaders)
		}
		if got := vm.World().NumIsolates(); got != isolates {
			t.Fatalf("failed clone %d leaked an isolate slot: %d, want %d", i, got, isolates)
		}
	}

	// Un-fill and prove the free list is intact: the next clone must
	// reuse the exact ID the probe clone returned.
	filler.Release()
	vm.CollectGarbage(nil)
	clone, err := vm.CloneIsolate(snap, "after-oom")
	if err != nil {
		t.Fatalf("clone after releasing filler: %v", err)
	}
	if clone.ID() != probeID {
		t.Fatalf("clone got ID %d, want recycled %d — failed clones disturbed the free list", clone.ID(), probeID)
	}
	if got := vm.Registry().NumLoaders(); got != loaders {
		t.Fatalf("loader count after recovery: %d, want %d", got, loaders)
	}
	if got := snapCall(t, vm, clone, 5); got != 37 {
		t.Fatalf("recovered clone bump = %d, want 37", got)
	}
}

// countingStops is a pass-through test scheduler that counts world stops.
type countingStops struct {
	nopHooks
	n int
}

func (c *countingStops) StopTheWorld(fn func()) { c.n++; fn() }

// TestFreeIsolateReusesCollectionStop pins the teardown pipeline's stop
// count: the collection that flips a killed clone to Disposed also scans
// the threads for it, so FreeIsolate stops the world only when that
// record is missing (freed twice) or withdrawn (a thread was spawned
// with the isolate as creator after the collection).
func TestFreeIsolateReusesCollectionStop(t *testing.T) {
	vm, warmer := snapVM(t)
	snapCall(t, vm, warmer, 5)
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	stops := &countingStops{}
	vm.Attach(stops)
	defer vm.Attach(nil)

	disposedClone := func(name string) *core.Isolate {
		t.Helper()
		iso, err := vm.CloneIsolate(snap, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.KillIsolate(nil, iso); err != nil {
			t.Fatal(err)
		}
		vm.CollectGarbage(nil)
		if !iso.Disposed() {
			t.Fatalf("%s not disposed after kill and collection", name)
		}
		return iso
	}

	iso := disposedClone("a")
	before := stops.n
	if err := vm.FreeIsolate(iso); err != nil {
		t.Fatal(err)
	}
	if stops.n != before {
		t.Errorf("FreeIsolate after a collection stopped the world %d times, want 0", stops.n-before)
	}
	if err := vm.FreeIsolate(iso); err == nil {
		t.Error("second FreeIsolate succeeded")
	}
	if stops.n != before+1 {
		t.Errorf("FreeIsolate without a collection's record made %d stops, want 1", stops.n-before)
	}

	// A thread spawned into the corpse after the collection withdraws the
	// record: FreeIsolate scans for itself again and finds the thread.
	iso = disposedClone("b")
	app, err := warmer.Loader().Lookup(snapApp) // template class: its frames run in the spawning isolate
	if err != nil {
		t.Fatal(err)
	}
	bump, err := app.LookupMethod("bump", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	th, err := vm.SpawnThread("squatter", iso, bump, []heap.Value{heap.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	if th.CurrentIsolate() != iso {
		t.Fatalf("the squatter runs in %s, want %s", th.CurrentIsolate().Name(), iso.Name())
	}
	before = stops.n
	if err := vm.FreeIsolate(iso); err == nil {
		t.Error("FreeIsolate succeeded with a live thread executing in the isolate")
	}
	if stops.n != before+1 {
		t.Errorf("FreeIsolate after a spawn made %d stops, want 1", stops.n-before)
	}
	if vm.RunUntil(th, 1_000_000); !th.Done() {
		t.Fatal("the squatter did not finish")
	}
	if err := vm.FreeIsolate(iso); err != nil {
		t.Errorf("FreeIsolate after the squatter finished: %v", err)
	}
}
