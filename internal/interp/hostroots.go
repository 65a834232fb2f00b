package interp

import (
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// HostRoots is a batch of GC roots held by host-side machinery (the RPC
// copier, in-flight call results, snapshots, the OSGi service registry).
// The VM's registry of batches is the one table of host-held roots the
// collector traces: buildRootSetsLocked turns every registered batch into
// root sets, and the heap keeps none of its own.
//
// A batch closes the window the per-object Pin API leaves open: with Pin,
// an object exists unrooted between its allocation and the Pin call, and
// an exact collection running in that window sweeps it. A rooted
// allocation into a batch instead allocates and roots under one pinMu
// critical section (VM.alloc), and exact collections hold pinMu across
// snapshot-and-sweep (see CollectGarbage), so a rooted host allocation
// is atomic with respect to reclamation.
//
// A batch charges its refs for the paper's §3.2 accounting in one of two
// ways. An isolate batch (NewHostRoots) attributes them all to its
// isolate, matching Pin's contract. A shared batch (NewSharedRoots)
// charges each ref to the object's own creator: it holds payloads that
// sit between isolates — zero-copy link payloads in flight, a snapshot's
// shared strings and frozen arrays — and its root sets lead the
// isolate-ordered ones, so every collection, exact or incremental,
// charges such an object to its creator.
//
// A batch is not internally locked against its own concurrent use: one
// goroutine owns a HostRoots at a time (the RPC layer hands batches from
// submitter to dispatcher to future-holder with happens-before edges).
// Registration, growth, and release synchronize with the collector via
// vm.pinMu only.
type HostRoots struct {
	vm     *VM
	iso    heap.IsolateID
	shared bool
	refs   []*heap.Object
	// slot is the batch's position in vm.hostRoots plus one, 0 while it
	// is not registered (guarded by pinMu). Registration is lazy — an
	// empty batch never touches the registry, which keeps scalar-only
	// RPC calls off the pinMu root registry.
	slot int
	// collect, when non-nil, is what a rooted allocation into the batch
	// runs on heap exhaustion before its one retry (NewCollectingRoots).
	collect func()
}

// NewHostRoots creates an empty root batch charged to iso. The batch
// registers itself with the collector on first Add or rooted allocation.
// A rooted allocation into it that finds the heap exhausted fails at
// once; host code that may collect there uses NewCollectingRoots.
func (vm *VM) NewHostRoots(iso *core.Isolate) *HostRoots {
	return &HostRoots{vm: vm, iso: iso.ID()}
}

// NewCollectingRoots is NewHostRoots with a collector: a rooted
// allocation into the batch that finds the heap exhausted runs collect
// and retries once. collect decides whom the collection is charged to and
// must be safe in the allocating goroutine's locking context (an RPC link
// collects through its hub, because the engine may be running on another
// goroutine).
func (vm *VM) NewCollectingRoots(iso *core.Isolate, collect func()) *HostRoots {
	return &HostRoots{vm: vm, iso: iso.ID(), collect: collect}
}

// NewSharedRoots creates an empty root batch that charges every root to
// the object's creator (heap.Object.Creator) and belongs to no isolate:
// FreeIsolate leaves it alone. It is for objects that already exist; it
// takes no rooted allocations.
func (vm *VM) NewSharedRoots() *HostRoots {
	return &HostRoots{vm: vm, shared: true}
}

// HostRootBatches returns the number of registered batches (diagnostics;
// tests assert that host-held roots balance).
func (vm *VM) HostRootBatches() int {
	vm.pinMu.Lock()
	defer vm.pinMu.Unlock()
	return len(vm.hostRoots)
}

// addLocked roots obj in the batch. Caller holds pinMu.
func (r *HostRoots) addLocked(obj *heap.Object) {
	if r.slot == 0 {
		r.vm.hostRoots = append(r.vm.hostRoots, r)
		r.slot = len(r.vm.hostRoots)
	}
	r.refs = append(r.refs, obj)
}

// Add roots an existing object in the batch. If a mark phase is open the
// object is also recorded with the cycle: the root snapshot was taken
// before the object was handed to the host, so injecting it as a barrier
// record keeps the SATB invariant for host-injected references (the same
// contract SpawnThread applies to pending arguments).
func (r *HostRoots) Add(obj *heap.Object) {
	if obj == nil {
		return
	}
	vm := r.vm
	vm.pinMu.Lock()
	r.addLocked(obj)
	vm.pinMu.Unlock()
	if vm.heap.BarrierActive() {
		vm.heap.RecordWrite(obj)
	}
}

// AddValue roots v's reference, if it has one.
func (r *HostRoots) AddValue(v heap.Value) {
	if v.IsRef() && v.R != nil {
		r.Add(v.R)
	}
}

// Refs returns the batch's current roots (reads are only safe from the
// owning goroutine; see the type comment).
func (r *HostRoots) Refs() []*heap.Object { return r.refs }

// Release unregisters the batch; releasing a nil or unregistered batch
// is a no-op. The objects stay referenced by the batch until it leaves
// the registry, so nothing can be swept mid-release; after Release they
// are reachable only through whatever guest or host structure they were
// handed to.
func (r *HostRoots) Release() {
	if r == nil || len(r.refs) == 0 {
		return // never registered: only the owner appends to refs
	}
	vm := r.vm
	vm.pinMu.Lock()
	if i := r.slot - 1; i >= 0 {
		last := len(vm.hostRoots) - 1
		moved := vm.hostRoots[last]
		vm.hostRoots[i], moved.slot = moved, i+1
		vm.hostRoots[last] = nil
		vm.hostRoots = vm.hostRoots[:last]
		r.slot = 0
	}
	vm.pinMu.Unlock()
}

// AllocObjectRooted allocates an instance of class charged to iso and
// roots it in r before any collection can observe it.
func (vm *VM) AllocObjectRooted(r *HostRoots, class *classfile.Class, iso *core.Isolate) (*heap.Object, error) {
	return vm.alloc(nil, iso, r, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocObject(class, iso.ID())
	})
}

// AllocArrayRooted allocates an n-element array of class charged to iso
// and roots it in r.
func (vm *VM) AllocArrayRooted(r *HostRoots, class *classfile.Class, n int, iso *core.Isolate) (*heap.Object, error) {
	return vm.alloc(nil, iso, r, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocArray(class, n, iso.ID())
	})
}

// AllocNativeRooted allocates a native-payload object charged to iso and
// roots it in r; conn marks a connection, as in AllocNativeIn.
func (vm *VM) AllocNativeRooted(r *HostRoots, class *classfile.Class, payload any, size int64, conn bool, iso *core.Isolate) (*heap.Object, error) {
	return vm.alloc(nil, iso, r, func(d *heap.AllocDomain) (*heap.Object, error) {
		return d.AllocNative(class, payload, size, conn, iso.ID())
	})
}

// NewStringRooted allocates a fresh (non-interned) guest string charged
// to iso and roots it in r.
func (vm *VM) NewStringRooted(r *HostRoots, s string, iso *core.Isolate) (*heap.Object, error) {
	return vm.newString(nil, r, s, iso)
}
