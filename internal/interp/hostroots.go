package interp

import (
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// HostRoots is a transient batch of GC roots held by host-side machinery
// (the RPC copier, in-flight call results) on behalf of one isolate. It
// closes the window the per-object Pin API leaves open: with Pin, an
// object exists unrooted between its allocation and the Pin call, and an
// exact collection running in that window sweeps it. A rooted allocation
// into a batch instead allocates and roots under one pinMu critical
// section (VM.alloc), and exact collections hold pinMu across
// snapshot-and-sweep (see CollectGarbage), so a rooted host allocation
// is atomic with respect to reclamation.
//
// All refs in a batch are attributed to the batch's isolate for the
// paper's §3.2 accounting, matching Pin's contract.
//
// A batch is not internally locked against its own concurrent use: one
// goroutine owns a HostRoots at a time (the RPC layer hands batches from
// submitter to dispatcher to future-holder with happens-before edges).
// Registration, growth, and release synchronize with the collector via
// vm.pinMu only.
type HostRoots struct {
	vm   *VM
	iso  heap.IsolateID
	refs []*heap.Object
	// registered tracks membership in vm.hostRoots (guarded by pinMu).
	// Registration is lazy — an empty batch never touches the VM map,
	// which keeps scalar-only RPC calls off the pinMu root registry.
	registered bool
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

// addLocked roots obj in the batch. Caller holds pinMu.
func (r *HostRoots) addLocked(obj *heap.Object) {
	if !r.registered {
		r.registered = true
		r.vm.hostRoots[r] = struct{}{}
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

// Release unregisters the batch. The objects stay referenced by the
// slice until the map entry is gone, so nothing can be swept mid-release;
// after Release they are reachable only through whatever guest or pin
// structure they were handed to.
func (r *HostRoots) Release() {
	if !r.registered {
		return
	}
	vm := r.vm
	vm.pinMu.Lock()
	delete(vm.hostRoots, r)
	r.registered = false
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

// NewStringRooted allocates a fresh (non-interned) guest string charged
// to iso and roots it in r.
func (vm *VM) NewStringRooted(r *HostRoots, s string, iso *core.Isolate) (*heap.Object, error) {
	return vm.newString(nil, r, s, iso)
}
