package interp

import (
	"errors"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// This file is the interpreter's allocation layer: it threads the
// executing shard's allocation domain (heap.AllocDomain) and batched
// per-isolate byte accounting (core.ByteBatch) through every guest
// allocation site, so the allocation fast path is a shard-local bump —
// a plain subtraction from the domain's TLAB slack (one reservation CAS
// against the heap limit per refill), a header from the domain's slab,
// an append to its private object list, and a plain-counter batch note —
// with no global mutex, no shared statistic atomics and no locked
// instruction. The closure tier's allocation micros (closure.go) take the
// same path inside a block and bail to the table handler whenever it
// would need more (a collection, an initialization, a resolution).
// Everything else allocates through one routine, VM.alloc.
//
// # Ownership
//
// An allocState is single-goroutine state with the same contract as
// core.InstrBatch: every engine driver owns one, carried in its
// SampleState (the sequential engine's is VM.seq's, kept for the VM's
// life; a concurrent worker's is recycled through vm's free list across
// runs), and the quantum routine installs it on the executing thread
// (t.alloc) only for the duration of a quantum. Code running on the executing goroutine —
// prepared handlers, the reference switch path, natives, vm.Throw —
// allocates through it; everything else (host-side setup, RPC copies,
// wake-side throwable allocation such as InterruptThread, tests) passes
// a nil thread or a thread without an installed state and falls back to
// the heap's mutex-guarded host path, which charges counters directly
// and therefore needs no flush.
//
// # Exactness
//
// Byte accounts share InstrBatch's exactness contract: batches flush
// when the charged isolate changes, at every quantum boundary (workers
// flush before parking for a stop-the-world), at sequential safepoints
// (flushQuantum), and before any allocation-pressure collection —
// so the STW accounting GC, kills and precise accounting always observe
// exact per-isolate totals, while mid-quantum host-side snapshot reads
// may trail by at most one quantum (exactly like instruction counts).
type allocState struct {
	dom   *heap.AllocDomain
	batch core.ByteBatch
	// satb buffers the shard's SATB write-barrier records while a mark
	// phase is open, handed to the heap's gray machinery at quantum
	// boundaries, before allocation-pressure collections, and when the
	// buffer fills. Same single-goroutine ownership as the batch.
	satb []*heap.Object
	// gcIso, when non-nil, is the isolate whose allocation on this shard
	// crossed the background-cycle occupancy threshold; the shard's next
	// quantum boundary starts the cycle and charges the activation to it
	// (§4.4: collections are attributed to the allocator that forces
	// them, not to whoever happens to run at the boundary).
	gcIso *core.Isolate
	// barrierOn caches heap.BarrierActive for the current quantum, so the
	// reference-store fast paths read a plain bool instead of an atomic
	// per store. Refreshed at quantum starts and after sequential
	// stopped-world sections. Soundness: the barrier is only ever armed
	// inside a stop-the-world (cycle open), and every mutator passes a
	// quantum boundary — hence a refresh — before executing again, so the
	// flag can never be stale-false while a mark phase is open. A
	// stale-true flag merely records SATB entries the heap drops when no
	// cycle is active.
	barrierOn bool
}

// satbFlushAt bounds the barrier buffer between flush points.
const satbFlushAt = 128

// recordSATB buffers one overwritten reference, spilling to the heap
// when the buffer fills mid-quantum.
func (a *allocState) recordSATB(h *heap.Heap, old *heap.Object) {
	a.satb = append(a.satb, old)
	if len(a.satb) >= satbFlushAt {
		a.flushSATB(h)
	}
}

// flush publishes everything a holds for other goroutines: the batched
// byte accounts, the SATB buffer, and the domain's slack and object count
// (Used, NumObjects). The owner calls it at every quantum boundary.
func (a *allocState) flush(h *heap.Heap) {
	a.batch.Flush()
	a.flushSATB(h)
	a.dom.Publish()
}

// flushSATB hands buffered barrier records to the heap (no-op when
// empty). It must run before the owning goroutine parks for a
// stop-the-world: the terminal mark phase is sound only if every
// mutator's records are visible.
func (a *allocState) flushSATB(h *heap.Heap) {
	if len(a.satb) == 0 {
		return
	}
	h.FlushSATB(a.satb)
	for i := range a.satb {
		a.satb[i] = nil
	}
	a.satb = a.satb[:0]
}

// acquireAllocState returns a recycled (or fresh) allocation state. The
// domain registry in the heap is append-only, so states are pooled on
// the VM and reused across runs instead of growing the registry per run.
func (vm *VM) acquireAllocState() *allocState {
	vm.allocFreeMu.Lock()
	defer vm.allocFreeMu.Unlock()
	if n := len(vm.allocFree); n > 0 {
		a := vm.allocFree[n-1]
		vm.allocFree[n-1] = nil
		vm.allocFree = vm.allocFree[:n-1]
		// A collection may have reclaimed the domain's slack since its last
		// owner let go; the handoff orders this owner after it.
		a.dom.Handoff()
		a.barrierOn = vm.heap.BarrierActive()
		return a
	}
	return &allocState{dom: vm.heap.NewDomain(), barrierOn: vm.heap.BarrierActive()}
}

// releaseAllocState flushes and recycles a worker's allocation state. An
// exiting worker is no longer parked for a stop-the-world, so this may
// run beside a collection: the domain is published through Handoff.
func (vm *VM) releaseAllocState(a *allocState) {
	if a == nil {
		return
	}
	a.batch.Flush()
	a.flushSATB(vm.heap)
	a.dom.Handoff()
	a.gcIso = nil
	vm.allocFreeMu.Lock()
	vm.allocFree = append(vm.allocFree, a)
	vm.allocFreeMu.Unlock()
}

// allocOf returns the allocation state installed on t for the current
// quantum, or nil when the caller must use the host path.
func allocOf(t *Thread) *allocState {
	if t == nil {
		return nil
	}
	return t.alloc
}

// HeapUsed is Heap().Used() as the calling thread sees it: the domain
// installed on t for its quantum publishes its slack and object count
// first, so t's own allocations since the last quantum boundary show. A
// nil t, or one between quanta, reads the published figure.
func (vm *VM) HeapUsed(t *Thread) int64 {
	if a := allocOf(t); a != nil {
		a.dom.Publish()
	}
	return vm.heap.Used()
}

// alloc is the one allocation routine: every allocation outside the
// closure tier's micros goes through it. fn admits one object on the
// domain it is handed; alloc decides which domain that is, whether the
// object is rooted, and what a refusal costs.
//
//   - On the executing thread (t.alloc installed) fn runs on the shard's
//     domain and the object is charged through noteAlloc. On exhaustion
//     the byte batch and the SATB buffer are flushed, so the stopped-world
//     collection sees exact accounts and every barrier record; the
//     collection is charged to iso, and fn runs once more.
//   - Anywhere else fn runs on the heap's host domain (heap.HostAlloc),
//     which charges iso itself. With roots set, the allocation and its
//     root are one pinMu section: exact collections hold pinMu across
//     snapshot-and-sweep, so none can sweep the object before it is
//     rooted (under an open incremental cycle the heap also admits it
//     allocate-black). On exhaustion an unrooted allocation collects
//     charged to iso and retries once; a rooted one runs its batch's
//     collector and retries once, or fails at once when the batch has
//     none (NewCollectingRoots).
//
// A connection object counts as opened once it is admitted. Rooted
// callers pass a nil t: a root batch belongs to host code.
func (vm *VM) alloc(t *Thread, iso *core.Isolate, roots *HostRoots, fn func(*heap.AllocDomain) (*heap.Object, error)) (*heap.Object, error) {
	a := allocOf(t)
	obj, err := vm.admit(a, iso, roots, fn)
	if errors.Is(err, heap.ErrOutOfMemory) {
		switch {
		case a != nil:
			a.batch.Flush()
			a.flushSATB(vm.heap)
			vm.CollectGarbage(iso)
		case roots == nil:
			vm.CollectGarbage(iso)
		case roots.collect != nil:
			roots.collect()
		default:
			return nil, err
		}
		obj, err = vm.admit(a, iso, roots, fn)
	}
	if err != nil {
		return nil, err
	}
	if a != nil {
		vm.noteAlloc(a, iso, obj)
	}
	if obj.IsConnection() {
		iso.Account().ConnectionsOpened.Add(1)
	}
	return obj, nil
}

// admit runs fn once: on the executing shard's domain when a is set,
// otherwise on the host domain, rooted in roots (when set) inside the
// same pinMu section.
func (vm *VM) admit(a *allocState, iso *core.Isolate, roots *HostRoots, fn func(*heap.AllocDomain) (*heap.Object, error)) (*heap.Object, error) {
	if a != nil {
		return fn(a.dom)
	}
	if roots == nil {
		return vm.heap.HostAlloc(iso.ID(), fn)
	}
	vm.pinMu.Lock()
	defer vm.pinMu.Unlock()
	obj, err := vm.heap.HostAlloc(iso.ID(), fn)
	if err == nil {
		roots.addLocked(obj)
	}
	return obj, err
}

// noteAlloc charges one admitted object to iso, as every engine allocation
// is charged: a note in the batched byte accounts and, when occupancy has
// crossed the background-cycle threshold, iso as the allocator the next
// quantum boundary charges the cycle's activation to (gcIso).
func (vm *VM) noteAlloc(a *allocState, iso *core.Isolate, obj *heap.Object) {
	if vm.heap.TrackAlloc() {
		a.batch.Note(vm.heap.CountersFor(iso.ID()), obj.Size(), obj.IsConnection())
	}
	if a.gcIso == nil && vm.heap.CrossedThreshold() {
		a.gcIso = iso
	}
}

// AllocObjectIn allocates an instance of class charged to iso, collecting
// on pressure. t, when executing, selects the shard-local allocation
// domain; a nil t (host-side callers) selects the host path.
func (vm *VM) AllocObjectIn(t *Thread, class *classfile.Class, iso *core.Isolate) (*heap.Object, error) {
	return vm.alloc(t, iso, nil, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocObject(class, iso.ID())
	})
}

// AllocArrayIn allocates an array charged to iso, collecting on pressure.
func (vm *VM) AllocArrayIn(t *Thread, class *classfile.Class, n int, iso *core.Isolate) (*heap.Object, error) {
	return vm.alloc(t, iso, nil, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocArray(class, n, iso.ID())
	})
}

// AllocNativeIn allocates a native-payload object charged to iso; conn
// marks a connection, counted as opened once it is admitted.
func (vm *VM) AllocNativeIn(t *Thread, class *classfile.Class, payload any, size int64, conn bool, iso *core.Isolate) (*heap.Object, error) {
	return vm.alloc(t, iso, nil, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocNative(class, payload, size, conn, iso.ID())
	})
}

// newString allocates a fresh guest string charged to iso, on t's domain
// or rooted in roots: the one string allocation behind NewStringObject,
// InternString and NewStringRooted.
func (vm *VM) newString(t *Thread, roots *HostRoots, s string, iso *core.Isolate) (*heap.Object, error) {
	strClass, err := vm.lookupWellKnown(ClassString)
	if err != nil {
		return nil, err
	}
	return vm.alloc(t, iso, roots, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocString(strClass, s, iso.ID())
	})
}

// newClassObject allocates iso's java.lang.Class object for c: the one
// class-object allocation behind ClassObjectFor and snapshot
// materialization.
func (vm *VM) newClassObject(t *Thread, roots *HostRoots, c *classfile.Class, iso *core.Isolate) (*heap.Object, error) {
	classClass, err := vm.lookupWellKnown(ClassClass)
	if err != nil {
		return nil, err
	}
	return vm.alloc(t, iso, roots, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocNative(classClass, c, 0, false, iso.ID())
	})
}
