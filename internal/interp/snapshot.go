package interp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/loader"
)

// Snapshot fast-start
//
// A Snapshot is a checkpoint of a fully warmed isolate taken at a
// safepoint: the initialization state and static variable slots of every
// task class mirror the isolate touched, the reachable static object
// graph, the interned-string pool, and the isolate's resource account at
// capture. CloneIsolate materializes new tenants from it in microseconds
// instead of replaying class definition, preparation and <clinit> —
// the paper's gateway scenario (§1) at serverless density.
//
// What is shared vs. private:
//
//   - prepared and closure-tier code is shared automatically: PCode is
//     cached on the Method (bootstrap-owned or template-loader-owned), so
//     every clone of the same VM reuses the exact published bodies via
//     the existing first-wins CAS — and since clones run in the same VM
//     and the same isolation mode as their template, nothing is
//     re-prepared at clone time;
//   - interned strings are shared by pointer: the clone adopts the
//     template's copy-on-write pool map and grows privately from it;
//     string objects are immutable, and pool identity is what keeps
//     guest == semantics identical to a cold start;
//   - arrays the template froze (heap.Freeze) are shared by pointer and
//     kept alive by the snapshot's shared root batch; capture itself
//     freezes nothing, so a clone's stores behave as in a cold start;
//   - everything else — mutable statics, the reachable object graph, the
//     java.lang.Class objects — is a private per-clone copy (the "delta"
//     every tenant may mutate freely).
//
// Class visibility: cloning shares classes, so the captured classes must
// be resolvable without binding the clone to another isolate — they must
// live in loaders that have no isolate (a "template loader" pattern: the
// warmer isolate's own loader defines nothing and delegates to the
// template loader), or the template isolate must have been freed first.
// CloneIsolate enforces this.
type Snapshot struct {
	vm      *VM
	srcID   heap.IsolateID
	srcName string

	// delegates is the loader wiring a clone needs to resolve exactly the
	// class set the template resolved: the template's own loader first (if
	// it defined classes), then its delegates in order.
	delegates []*loader.Loader

	classes []snapClass
	objects []snapObject
	pool    map[string]*heap.Object

	// shared roots every shared-by-pointer object for the snapshot's
	// lifetime, charged to its creator, so clones stay valid after the
	// template dies. It belongs to no isolate: FreeIsolate leaves it be.
	shared *HostRoots

	account core.Account

	released atomic.Bool
}

// SnapshotOptions is CaptureSnapshot's options parameter. It has no
// fields; it stays only because existing callers (the benchmark's tenant
// gateway among them) pass SnapshotOptions{}, and goes with them.
type SnapshotOptions struct{}

// snapSlots is one captured slot vector — a mirror's statics, an object's
// fields or an array's elements — stored the way a clone needs it: vals is
// the vector itself with every reference nil, refs names the object of
// Snapshot.objects that belongs in each reference slot. Materializing it
// is one copy and len(refs) stores, whatever the vector's length.
type snapSlots struct {
	vals []heap.Value
	refs []snapRef
}

type snapRef struct{ slot, obj int32 }

// fill writes the vector into dst (of the captured length), references
// resolved through objs.
func (s *snapSlots) fill(dst []heap.Value, objs []*heap.Object) {
	copy(dst, s.vals)
	for _, r := range s.refs {
		dst[r.slot].R = objs[r.obj]
	}
}

// snapClass is one captured task class mirror. fresh marks a capture that
// raced the <clinit> of the class or of a super: the mirror restores
// uninitialized (restoreStatics).
type snapClass struct {
	class       *classfile.Class
	state       core.InitState
	fresh       bool
	statics     snapSlots
	hasClassObj bool
}

// snapObject is one node of the captured static object graph. Exactly one
// of the representations is active: shared (reused by pointer), str
// (string payload copy), classOf (java.lang.Class native), or the slot
// copy (array elements when isArray, instance fields otherwise).
type snapObject struct {
	class   *classfile.Class
	shared  *heap.Object
	str     string
	isStr   bool
	classOf *classfile.Class
	isArray bool
	slots   snapSlots
}

// CaptureSnapshot checkpoints src at a safepoint. The world is stopped
// for the duration (the same machinery exact collections use), so the
// captured cut is consistent: no torn references, no half-run stores.
// Capture fails on graphs the clone path cannot reproduce — connection
// objects and opaque native payloads (live system-library state parked in
// statics); warm-up code should leave only data behind.
//
// The caller must Release the snapshot when no more clones will be made;
// Release drops the shared root batch that keeps pool strings and frozen
// arrays alive after the template isolate dies.
func (vm *VM) CaptureSnapshot(src *core.Isolate, _ SnapshotOptions) (*Snapshot, error) {
	if src == nil {
		return nil, errors.New("interp: capture nil isolate")
	}
	if src.Killed() {
		return nil, fmt.Errorf("interp: cannot capture killed isolate %s", src.Name())
	}
	snap := &Snapshot{vm: vm, srcID: src.ID(), srcName: src.Name(), shared: vm.NewSharedRoots()}
	var err error
	vm.withWorldStopped(func() {
		err = vm.captureStopped(snap, src)
	})
	if err != nil {
		// Release the shared root batch so the root registry is exactly
		// as it was: a failed capture must be a pure no-op, the template
		// keeps serving.
		snap.Release()
		return nil, err
	}
	return snap, nil
}

// captureStopped does the actual capture; the world is stopped.
func (vm *VM) captureStopped(snap *Snapshot, src *core.Isolate) error {
	srcLoader := src.Loader()
	if srcLoader.NumClasses() > 0 {
		snap.delegates = append(snap.delegates, srcLoader)
	}
	snap.delegates = append(snap.delegates, srcLoader.Delegates()...)

	snap.pool = src.StringPoolSnapshot()
	poolSet := make(map[*heap.Object]bool, len(snap.pool))
	for _, obj := range snap.pool {
		poolSet[obj] = true
		snap.shared.Add(obj)
	}

	fl := &flattener{vm: vm, snap: snap, poolSet: poolSet, memo: make(map[*heap.Object]int32)}
	for _, e := range vm.world.MirrorEntries(src) {
		statics, bad, err := fl.capture(e.Mirror.Statics)
		if err != nil {
			return fmt.Errorf("capture %s.%s: %w", e.Class.Name, e.Class.StaticFields[bad].Name, err)
		}
		snap.classes = append(snap.classes, snapClass{
			class:       e.Class,
			state:       e.Mirror.State,
			fresh:       e.Mirror.State == core.InitRunning,
			statics:     statics,
			hasClassObj: e.Mirror.ClassObject.Load() != nil,
		})
	}
	markRacedSubclasses(snap.classes)

	snap.account = src.Account().Numbers()
	return nil
}

// markRacedSubclasses extends fresh from every class whose <clinit> the
// capture raced to its subclasses. A subclass can finish initializing
// while a super's <clinit> still runs (the super's initializer touched it),
// and restoring it initialized beside an uninitialized super would break
// what the one-read initialization check (ensureInitialized) relies on:
// an initialized class has initialized supers.
func markRacedSubclasses(classes []snapClass) {
	running := make(map[*classfile.Class]bool)
	for _, sc := range classes {
		if sc.fresh {
			running[sc.class] = true
		}
	}
	if len(running) == 0 {
		return
	}
	for i := range classes {
		for k := classes[i].class.Super; k != nil && !classes[i].fresh; k = k.Super {
			classes[i].fresh = running[k]
		}
	}
}

// flattener serializes the reachable static object graph into flat
// records, preserving aliasing and cycles through the memo.
type flattener struct {
	vm      *VM
	snap    *Snapshot
	poolSet map[*heap.Object]bool
	memo    map[*heap.Object]int32
}

// capture records one slot vector, flattening everything it references.
// On failure it also returns the index of the slot that could not be
// captured.
func (fl *flattener) capture(src []heap.Value) (snapSlots, int, error) {
	s := snapSlots{vals: append([]heap.Value(nil), src...)}
	for i := range s.vals {
		o := s.vals[i].R
		if o == nil {
			continue
		}
		s.vals[i].R = nil
		idx, err := fl.flatten(o)
		if err != nil {
			return s, i, err
		}
		s.refs = append(s.refs, snapRef{slot: int32(i), obj: idx})
	}
	return s, 0, nil
}

func (fl *flattener) flatten(o *heap.Object) (int32, error) {
	if idx, ok := fl.memo[o]; ok {
		return idx, nil
	}
	idx := int32(len(fl.snap.objects))
	fl.memo[o] = idx
	fl.snap.objects = append(fl.snap.objects, snapObject{class: o.Class})
	rec := &fl.snap.objects[idx]

	if fl.poolSet[o] || o.Frozen() {
		rec.shared = o
		fl.snap.shared.Add(o)
		return idx, nil
	}
	if s, ok := o.StringValue(); ok {
		rec.str, rec.isStr = s, true
		return idx, nil
	}
	if o.IsConnection() {
		return idx, fmt.Errorf("connection object of class %s is not snapshotable", o.Class.Name)
	}
	if native := o.Native(); native != nil {
		if c, ok := native.(*classfile.Class); ok {
			rec.classOf = c
			return idx, nil
		}
		return idx, fmt.Errorf("opaque native payload on %s is not snapshotable", o.Class.Name)
	}
	// The recursion below may grow fl.snap.objects and relocate the
	// record, so the vector is stored through the index afterwards.
	rec.isArray = o.IsArray()
	slots, _, err := fl.capture(o.Elems)
	fl.snap.objects[idx].slots = slots
	return idx, err
}

// Released reports whether Release ran.
func (snap *Snapshot) Released() bool { return snap.released.Load() }

// SourceName returns the captured isolate's name (diagnostics).
func (snap *Snapshot) SourceName() string { return snap.srcName }

// NumClasses returns the number of captured task class mirrors.
func (snap *Snapshot) NumClasses() int { return len(snap.classes) }

// NumObjects returns the number of captured graph nodes.
func (snap *Snapshot) NumObjects() int { return len(snap.objects) }

// Release drops the snapshot's shared root batch. Existing clones stay valid —
// their mirrors and pools root everything they use — but no further
// clones may be made.
func (snap *Snapshot) Release() {
	if !snap.released.CompareAndSwap(false, true) {
		return
	}
	snap.shared.Release()
}

// CloneIsolate materializes a new tenant isolate from a warmed snapshot:
// a fresh loader wired to the template's class owners, one mirror per
// captured class installed in the class's row (statics already
// initialized, so no <clinit> runs), the template's interned-string pool
// adopted by pointer, and the account and allocation counters seeded to
// the capture-time values — byte-identical to a cold start that ran the
// same warm-up.
//
// Materialization is GC-safe without stopping the world: every copy is
// allocated and rooted atomically against exact collections through a
// HostRoots batch, and released only after the mirrors (the permanent
// roots) are published.
func (vm *VM) CloneIsolate(snap *Snapshot, name string) (*core.Isolate, error) {
	if snap == nil || snap.vm != vm {
		return nil, errors.New("interp: clone requires a snapshot of this VM")
	}
	if snap.Released() {
		return nil, errors.New("interp: snapshot already released")
	}
	if !vm.world.Isolated() {
		return nil, errors.New("interp: cloning requires isolated mode (use RestoreInPlace in shared mode)")
	}
	for _, d := range snap.delegates {
		if owner := vm.world.IsolateForLoader(d); owner != nil {
			if owner.ID() == snap.srcID && d.NumClasses() > 0 {
				return nil, fmt.Errorf("interp: template %s still owns its classes; free it first or define classes in an isolate-less template loader", snap.srcName)
			}
		}
	}
	l := vm.registry.NewLoader(name)
	for _, d := range snap.delegates {
		l.AddDelegate(d)
	}
	iso, err := vm.world.NewIsolate(name, l)
	if err != nil {
		vm.registry.ReleaseLoader(l)
		return nil, err
	}
	roots := vm.NewHostRoots(iso)
	defer roots.Release()
	objs, classObjs, err := vm.materializeGraph(snap, iso, roots)
	if err != nil {
		return nil, vm.unwindClone(iso, roots, err)
	}
	// snap.classes is in StaticsID order (MirrorEntries captured it), the
	// order InstallMirrors takes.
	mirrors := make([]core.MirrorEntry, len(snap.classes))
	for i := range snap.classes {
		sc := &snap.classes[i]
		m, err := vm.buildMirror(snap, sc, iso, roots, objs, classObjs)
		if err != nil {
			return nil, vm.unwindClone(iso, roots, err)
		}
		mirrors[i] = core.MirrorEntry{Class: sc.class, Mirror: m}
	}
	if err := vm.world.InstallMirrors(iso, mirrors); err != nil {
		return nil, vm.unwindClone(iso, roots, err)
	}
	iso.AdoptStringPool(snap.pool)
	iso.Account().Seed(snap.account)
	// The seed is the template's work, not the run's: the scheduler
	// counts the clone's charges from here.
	vm.notifyIsolateCreated(iso)
	return iso, nil
}

// unwindClone rolls back a mid-materialization clone failure so the
// attempt leaves no trace: the half-built isolate consumed a dense
// isolate ID, a registry loader slot, heap bytes for the partial copy,
// and possibly installed mirrors — all of which would leak if
// the error return simply abandoned them (the clone pool retries clone
// failures forever; a leak per attempt would exhaust the ID space and
// the heap). The unwind reuses the sanctioned teardown pipeline, in
// dependency order:
//
//	release roots -> kill -> collect -> FreeIsolate
//
// Releasing the HostRoots batch first unroots the partial copies;
// killing the (never-run) isolate removes its mirrors from the root set;
// the accounting collection then sweeps every byte the attempt charged
// and flips the corpse to Disposed (nothing else can root a clone that
// never ran); FreeIsolate finally returns the dense ID to the world's
// free list, clears any installed mirrors and releases the classless
// loader back to the registry. Every
// step is host-side and safepoint-aware, so a failed clone behind a live
// scheduler unwinds without stopping tenant progress beyond the one
// collection. The original cause is returned, annotated if the unwind
// itself could not complete (which would indicate a bug, not a full
// heap).
func (vm *VM) unwindClone(iso *core.Isolate, roots *HostRoots, cause error) error {
	roots.Release()
	if err := vm.KillIsolate(nil, iso); err != nil {
		return fmt.Errorf("%w (clone unwind: kill failed: %v)", cause, err)
	}
	vm.CollectGarbage(nil)
	if !iso.Disposed() {
		return fmt.Errorf("%w (clone unwind: isolate %s not disposed after sweep)", cause, iso.Name())
	}
	if err := vm.FreeIsolate(iso); err != nil {
		return fmt.Errorf("%w (clone unwind: free failed: %v)", cause, err)
	}
	return cause
}

// materializeGraph allocates the private copies of the captured graph,
// charged to iso and rooted in roots. Shared records reuse the template
// object, rooted by the snapshot's shared batch, by pointer.
func (vm *VM) materializeGraph(snap *Snapshot, iso *core.Isolate, roots *HostRoots) ([]*heap.Object, map[*classfile.Class]*heap.Object, error) {
	objs := make([]*heap.Object, len(snap.objects))
	classObjs := make(map[*classfile.Class]*heap.Object)
	for i := range snap.objects {
		so := &snap.objects[i]
		switch {
		case so.shared != nil:
			objs[i] = so.shared
		case so.isStr:
			obj, err := vm.NewStringRooted(roots, so.str, iso)
			if err != nil {
				return nil, nil, err
			}
			objs[i] = obj
		case so.classOf != nil:
			obj, err := vm.classObjectRooted(so.classOf, iso, roots, classObjs)
			if err != nil {
				return nil, nil, err
			}
			objs[i] = obj
		case so.isArray:
			obj, err := vm.AllocArrayRooted(roots, so.class, len(so.slots.vals), iso)
			if err != nil {
				return nil, nil, err
			}
			objs[i] = obj
		default:
			obj, err := vm.AllocObjectRooted(roots, so.class, iso)
			if err != nil {
				return nil, nil, err
			}
			objs[i] = obj
		}
	}
	// Second pass: wire fields and elements now that every node exists
	// (aliases and cycles resolve through the index space).
	for i := range snap.objects {
		so := &snap.objects[i]
		if so.shared != nil || so.isStr || so.classOf != nil {
			continue
		}
		so.slots.fill(objs[i].Elems, objs)
	}
	return objs, classObjs, nil
}

// classObjectRooted materializes iso's java.lang.Class object for c,
// memoized so a class object reachable both from statics and from its
// mirror stays one object (as in the template).
func (vm *VM) classObjectRooted(c *classfile.Class, iso *core.Isolate, roots *HostRoots, memo map[*classfile.Class]*heap.Object) (*heap.Object, error) {
	if obj, ok := memo[c]; ok {
		return obj, nil
	}
	obj, err := vm.newClassObject(nil, roots, c, iso)
	if err != nil {
		return nil, err
	}
	memo[c] = obj
	return obj, nil
}

// buildMirror constructs one clone mirror from a captured class record. A
// capture that raced a running <clinit> of the class or of a super
// (snapClass.fresh) yields a fresh uninitialized mirror: the clone re-runs
// the initializer from scratch rather than resuming a half-run one.
func (vm *VM) buildMirror(snap *Snapshot, sc *snapClass, iso *core.Isolate, roots *HostRoots, objs []*heap.Object, classObjs map[*classfile.Class]*heap.Object) (*core.TaskClassMirror, error) {
	m := &core.TaskClassMirror{Statics: make([]heap.Value, len(sc.statics.vals))}
	restoreStatics(m, sc, objs)
	if sc.hasClassObj {
		obj, err := vm.classObjectRooted(sc.class, iso, roots, classObjs)
		if err != nil {
			return nil, err
		}
		m.ClassObject.Store(obj)
	}
	return m, nil
}

// restoreStatics sets m's initialization state and statics to the captured
// record's; a capture that raced a running <clinit> of the class or of a
// super leaves them as a fresh mirror's.
func restoreStatics(m *core.TaskClassMirror, sc *snapClass, objs []*heap.Object) {
	if sc.fresh {
		m.State = core.InitNone
		for i, f := range sc.class.StaticFields {
			m.Statics[i] = heap.ZeroOf(f.Kind)
		}
		return
	}
	m.State = sc.state
	sc.statics.fill(m.Statics, objs)
}

// RestoreInPlace rewinds the captured isolate itself back to the
// snapshot: every captured mirror's state and statics are overwritten in
// place (the mirror structs are identity-stable, so Shared-mode
// ResolvedMirror pool caches stay valid), the string pool is reset to the
// captured map, and the account and allocation counters are re-seeded.
// This is the Shared-mode counterpart of CloneIsolate — the baseline VM
// has exactly one isolate, so "spawn a fresh tenant" means "reset the
// world to the warm point".
//
// Contract: the warm-up must have touched every class the isolate ever
// initialized ("full warm"), because an initialized mirror the snapshot
// does not cover cannot be reset safely — Shared-mode pool caches skip
// the initialization check, so zeroing such a mirror would expose
// uninitialized statics without re-running <clinit>. RestoreInPlace
// validates this before mutating anything.
func (snap *Snapshot) RestoreInPlace() error {
	vm := snap.vm
	if snap.Released() {
		return errors.New("interp: snapshot already released")
	}
	iso := vm.world.IsolateByID(snap.srcID)
	if iso == nil || iso.Killed() || iso.Name() != snap.srcName {
		return fmt.Errorf("interp: snapshot source %s is gone", snap.srcName)
	}
	roots := vm.NewHostRoots(iso)
	defer roots.Release()
	objs, classObjs, err := vm.materializeGraph(snap, iso, roots)
	if err != nil {
		return err
	}
	bySid := make(map[int]*snapClass, len(snap.classes))
	for i := range snap.classes {
		bySid[snap.classes[i].class.StaticsID] = &snap.classes[i]
	}
	var rerr error
	vm.withWorldStopped(func() {
		entries := vm.world.MirrorEntries(iso)
		// Validate the full-warm contract before mutating anything.
		for _, e := range entries {
			if _, ok := bySid[e.Class.StaticsID]; ok {
				continue
			}
			if e.Mirror.State != core.InitNone {
				rerr = fmt.Errorf("interp: snapshot does not cover initialized class %s; capture after a full warm-up", e.Class.Name)
				return
			}
		}
		for _, e := range entries {
			sc, ok := bySid[e.Class.StaticsID]
			if !ok {
				// Untouched mirror (lazily grown, never initialized):
				// reset its Class object so lazy allocation replays
				// identically.
				e.Mirror.ClassObject.Store(nil)
				continue
			}
			restoreMirror(e.Mirror, sc, objs, classObjs)
		}
		iso.AdoptStringPool(snap.pool)
		iso.Account().Seed(snap.account)
	})
	return rerr
}

// restoreMirror overwrites one existing mirror in place with the captured
// record.
func restoreMirror(m *core.TaskClassMirror, sc *snapClass, objs []*heap.Object, classObjs map[*classfile.Class]*heap.Object) {
	restoreStatics(m, sc, objs)
	m.InitThread = 0
	if !sc.hasClassObj {
		m.ClassObject.Store(nil)
	} else if m.ClassObject.Load() == nil {
		if obj, ok := classObjs[sc.class]; ok {
			m.ClassObject.Store(obj)
		}
	}
}

// FreeIsolate returns a disposed isolate to the recycling pool: its
// accounting ID, mirror slots and (if classless) loader
// are all reclaimed for the next NewIsolate/CloneIsolate. The isolate
// must be fully disposed — killed, swept by an accounting collection, no
// live charged objects — and must have no undone threads still bound to
// it. Recycling is a host-side operation, between runs or beside a
// concurrent one: the scheduler keys its shards by isolate pointer and
// is told of the free (SchedHooks.IsolateFreed), so it retires the
// isolate's shard, and a recycled ID is adopted naturally on the next
// spawn.
func (vm *VM) FreeIsolate(iso *core.Isolate) error {
	if iso == nil {
		return errors.New("interp: free nil isolate")
	}
	// Workers write Thread.cur on every migration without a lock, so the
	// liveness scan needs the world stopped; threadsMu orders it with
	// host-side RespawnThread. The collection that disposed the isolate
	// usually made the scan already, inside its own stop (noteThreadFree);
	// only a caller that frees without one pays a stop here.
	vm.threadsMu.Lock()
	_, scanned := vm.threadFree[iso]
	delete(vm.threadFree, iso)
	vm.threadsMu.Unlock()
	var busy *Thread
	if !scanned {
		vm.withWorldStopped(func() {
			vm.threadsMu.Lock()
			defer vm.threadsMu.Unlock()
			for _, t := range vm.threads {
				if !t.Done() && t.cur == iso {
					busy = t
					return
				}
			}
		})
	}
	if busy != nil {
		return fmt.Errorf("interp: thread %d still executes in %s", busy.ID(), iso.Name())
	}
	l := iso.Loader()
	if err := vm.world.FreeIsolate(iso); err != nil {
		return err
	}
	vm.pinMu.Lock()
	delete(vm.pinned, iso.ID())
	vm.pinMu.Unlock()
	vm.registry.ReleaseLoader(l)
	vm.notifyIsolateFreed(iso)
	return nil
}

// ReachabilityFingerprint hashes the canonical shape of everything
// reachable from one isolate's mirrors and string pool: class names,
// initialization states, value kinds and scalars, string payloads, array
// lengths, and the aliasing structure of the reference graph (visit-order
// numbering, so two isomorphic graphs hash equal regardless of object
// identity). The differential oracle uses it to prove a clone's post-GC
// reachability is byte-identical to a cold start's. Callers run it while
// the isolate executes no guest code.
func (vm *VM) ReachabilityFingerprint(iso *core.Isolate) uint64 {
	h := fnv.New64a()
	seen := make(map[*heap.Object]int)
	var walkVal func(v heap.Value)
	var walkObj func(o *heap.Object)
	walkObj = func(o *heap.Object) {
		if n, ok := seen[o]; ok {
			fmt.Fprintf(h, "@%d;", n)
			return
		}
		n := len(seen)
		seen[o] = n
		fmt.Fprintf(h, "#%d:%s", n, o.Class.Name)
		if s, ok := o.StringValue(); ok {
			fmt.Fprintf(h, "=str(%q);", s)
			return
		}
		if c, ok := o.Native().(*classfile.Class); ok {
			fmt.Fprintf(h, "=class(%s);", c.Name)
			return
		}
		shape := "obj"
		if o.IsArray() {
			shape = "arr"
		}
		fmt.Fprintf(h, "=%s[%d]{", shape, len(o.Elems))
		for _, v := range o.Elems {
			walkVal(v)
		}
		fmt.Fprint(h, "};")
	}
	walkVal = func(v heap.Value) {
		if v.R != nil {
			fmt.Fprintf(h, "r%d>", v.Kind)
			walkObj(v.R)
			return
		}
		fmt.Fprintf(h, "v%d:%d:%x;", v.Kind, v.I, v.F)
	}
	for _, e := range vm.world.MirrorEntries(iso) {
		fmt.Fprintf(h, "C%s|%d|", e.Class.Name, e.Mirror.State)
		for _, sv := range e.Mirror.Statics {
			walkVal(sv)
		}
		if e.Mirror.ClassObject.Load() != nil {
			fmt.Fprint(h, "K1;")
		} else {
			fmt.Fprint(h, "K0;")
		}
	}
	pool := iso.StringPoolSnapshot()
	keys := make([]string, 0, len(pool))
	for k := range pool {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "S%q;", k)
	}
	return h.Sum64()
}
