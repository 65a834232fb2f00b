// Package core implements the paper's primary contribution: lightweight
// isolates for OSGi bundles inside a single JVM. It provides
//
//   - the Isolate abstraction built from a class loader (§3.1), including
//     Isolate0 with elevated rights;
//   - task class mirrors: per-isolate static variables, initialization
//     state and java.lang.Class objects (§3.1);
//   - per-isolate interned-string pools (§3.5);
//   - per-isolate resource accounts: CPU samples, threads, connections,
//     I/O, GC activations, allocated and live memory (§3.2);
//   - the isolate termination state machine (§3.3): killed isolates have
//     their methods poisoned and their frames made unable to catch
//     StoppedIsolateException.
//
// The interpreter (internal/interp) consults this package on every static
// access, method call and allocation; the scheduler drives CPU sampling.
//
// # Locking discipline
//
// The concurrent scheduler (internal/sched) executes isolates in
// parallel, one worker per isolate shard, so this package distinguishes
// three classes of state:
//
//   - shard-local state (task-class-mirror contents: statics, init state,
//     Class objects) is only ever touched by the worker currently owning
//     the isolate the access is keyed by — the thread's current isolate —
//     and needs no locks;
//   - cross-isolate counters (AccountCounters, the isolate life state)
//     are atomics, readable and writable from any goroutine;
//   - shared registries take internal mutexes on the write side only.
//     The mirror row of a class hangs off the class
//     (classfile.Class.MirrorRow, indexed by isolate ID): readers load it
//     atomically, writers replace one row copy-on-write under
//     World.mirrorMu, which also guards each isolate's list of the
//     classes it holds a mirror for (Isolate.mirrored) — the list is what
//     install, enumeration, the GC root walk and the clear at free walk.
//     The loader-ID -> isolate directory is one atomic slot per loader,
//     stored under World.mu and read without it. The per-isolate
//     interned-string pool is copy-on-write under its own stringsMu.
//
// Every isolate-lifecycle operation therefore costs what that isolate
// touched, never what the VM has linked. What stays behind a tenant that
// defined its own classes is the classes themselves: there is no class
// unloading, so memory (not the time of any operation here) grows with
// them.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/loader"
)

// Rights is the permission set of an isolate. Isolate0 — the isolate of
// the OSGi runtime — holds all rights; standard bundle isolates hold none
// (paper §3.1).
type Rights uint8

// Right bits.
const (
	// RightSpawnIsolate permits creating new isolates.
	RightSpawnIsolate Rights = 1 << iota
	// RightKillIsolate permits terminating other isolates.
	RightKillIsolate
	// RightShutdown permits shutting down the entire platform.
	RightShutdown
)

// AllRights is the right set of Isolate0.
const AllRights = RightSpawnIsolate | RightKillIsolate | RightShutdown

// Has reports whether all bits in mask are present.
func (r Rights) Has(mask Rights) bool { return r&mask == mask }

// LifeState tracks an isolate through its lifecycle.
type LifeState uint8

// Isolate life states.
const (
	// StateLive is the normal running state.
	StateLive LifeState = iota + 1
	// StateKilled means termination has been requested: methods are
	// poisoned, threads executing the isolate's code receive
	// StoppedIsolateException, but objects may still be referenced by
	// other isolates.
	StateKilled
	// StateDisposed means no live object charged to the isolate remains;
	// the isolate has been removed from memory (paper §3.3, last
	// paragraph).
	StateDisposed
)

// String returns the state name.
func (s LifeState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateKilled:
		return "killed"
	case StateDisposed:
		return "disposed"
	default:
		return "invalid"
	}
}

// Isolate is one protection domain. In I-JVM mode each bundle class loader
// gets its own isolate; in Shared (baseline) mode a single isolate spans
// the whole VM.
type Isolate struct {
	id     heap.IsolateID
	name   string
	loader *loader.Loader
	rights Rights

	// state holds the LifeState. It is atomic because the kill path flips
	// it from an arbitrary goroutine while worker goroutines consult
	// Killed() on every cross-isolate call and frame return.
	state atomic.Uint32

	account AccountCounters
	// live is the isolate's live usage as of the last collection (nil:
	// none yet), replaced whole by World.UpdateDisposal inside the
	// collection's stop so a reader sees one collection's triple.
	live atomic.Pointer[heap.LiveStats]

	// weight, qos and throttled are the scheduler-QoS knobs (see qos.go).
	// All atomics: the governor writes them from its own goroutine while
	// scheduler workers and admission gates read them on hot paths. A
	// zero weight reads as DefaultWeight so constructors need no change.
	weight    atomic.Int64
	qos       atomic.Uint32
	throttled atomic.Bool

	// strings is the per-isolate interned-string pool (§3.5: "each bundle
	// has its map of strings, therefore the == operator does not work for
	// strings allocated by different bundles"), published copy-on-write:
	// the read path (every Ldc of an already-interned literal — the
	// steady state) is one atomic pointer load and a map lookup with no
	// lock, so threads migrated into the isolate and the isolate's own
	// shard never serialize on hot constant loads. stringsMu serializes
	// writers only: an insert copies the map, and the first publisher of
	// a string wins — later racing interners adopt the published object,
	// keeping guest == stable for everyone who interned the same
	// literal.
	stringsMu sync.Mutex
	strings   atomic.Pointer[map[string]*heap.Object]

	// recycled flips once when FreeIsolate returns the isolate's ID to the
	// World's free-list; the CAS guards against double-free.
	recycled atomic.Bool

	// mirrored lists, in StaticsID order, the classes whose mirror row
	// holds a mirror for this isolate. Guarded by World.mirrorMu, which
	// also keeps it in step with the rows.
	mirrored []*classfile.Class
}

// noteMirrored enters c in the isolate's class list. World.mirrorMu held.
func (iso *Isolate) noteMirrored(c *classfile.Class) {
	i, _ := slices.BinarySearchFunc(iso.mirrored, c.StaticsID, func(k *classfile.Class, sid int) int { return k.StaticsID - sid })
	iso.mirrored = slices.Insert(iso.mirrored, i, c)
}

// ID returns the isolate's accounting ID (0 for Isolate0).
func (iso *Isolate) ID() heap.IsolateID { return iso.id }

// Name returns the isolate's diagnostic name.
func (iso *Isolate) Name() string { return iso.name }

// Loader returns the class loader the isolate is built from.
func (iso *Isolate) Loader() *loader.Loader { return iso.loader }

// Rights returns the isolate's permission set.
func (iso *Isolate) Rights() Rights { return iso.rights }

// State returns the isolate's life state.
func (iso *Isolate) State() LifeState { return LifeState(iso.state.Load()) }

func (iso *Isolate) setState(s LifeState) { iso.state.Store(uint32(s)) }

// Killed reports whether termination has been requested (or completed).
func (iso *Isolate) Killed() bool { return iso.State() != StateLive }

// Disposed reports whether the isolate has been fully reclaimed.
func (iso *Isolate) Disposed() bool { return iso.State() == StateDisposed }

// IsIsolate0 reports whether this is the OSGi runtime's isolate.
func (iso *Isolate) IsIsolate0() bool { return iso.id == 0 }

// Account returns a pointer to the isolate's resource counters; the
// interpreter updates them in place with atomic adds.
func (iso *Isolate) Account() *AccountCounters { return &iso.account }

// Live returns the isolate's live usage as computed by the last
// collection: the objects, bytes and connections first traced from its
// roots. A fresh isolate, a clone included, reads zero until a collection
// has run since it was created.
func (iso *Isolate) Live() heap.LiveStats {
	if s := iso.live.Load(); s != nil {
		return *s
	}
	return heap.LiveStats{}
}

// InternedString returns the isolate-private interned object for s, if
// any. Lock-free: one atomic load plus a map lookup against the current
// copy-on-write snapshot.
func (iso *Isolate) InternedString(s string) (*heap.Object, bool) {
	obj, ok := (*iso.strings.Load())[s]
	return obj, ok
}

// SetInternedString records the isolate-private interned object for s
// and returns the pool's canonical object: the first publisher wins, so
// two racing interners of the same literal both end up holding the same
// object (guest == stability). The insert copies the map (writes are
// once-per-distinct-literal; reads are the hot path).
func (iso *Isolate) SetInternedString(s string, obj *heap.Object) *heap.Object {
	iso.stringsMu.Lock()
	defer iso.stringsMu.Unlock()
	old := *iso.strings.Load()
	if cur, ok := old[s]; ok {
		return cur
	}
	grown := make(map[string]*heap.Object, len(old)+1)
	for k, v := range old {
		grown[k] = v
	}
	grown[s] = obj
	iso.strings.Store(&grown)
	return obj
}

// StringPoolRoots appends the interned strings to roots (GC accounting
// step 2) and returns the extended slice. Lock-free against the current
// snapshot.
func (iso *Isolate) StringPoolRoots(roots []*heap.Object) []*heap.Object {
	for _, obj := range *iso.strings.Load() {
		roots = append(roots, obj)
	}
	return roots
}

// StringPoolSnapshot returns the isolate's current interned-string map.
// The map is a copy-on-write snapshot and must not be mutated; the
// snapshot-clone path captures it so clones share the template's canonical
// string objects (guest == across a clone and its template pool is
// intentionally preserved — interned strings are immutable).
func (iso *Isolate) StringPoolSnapshot() map[string]*heap.Object {
	return *iso.strings.Load()
}

// AdoptStringPool replaces the isolate's interned-string pool with pool
// (as captured by StringPoolSnapshot; nil resets to an empty pool). The
// isolate's own pool keeps growing copy-on-write from this base, so the
// adopted map is never mutated. Callers adopt only while the isolate runs
// no guest code.
func (iso *Isolate) AdoptStringPool(pool map[string]*heap.Object) {
	iso.stringsMu.Lock()
	defer iso.stringsMu.Unlock()
	if pool == nil {
		pool = map[string]*heap.Object{}
	}
	iso.strings.Store(&pool)
}

// NumInternedStrings returns the size of the isolate's string pool.
func (iso *Isolate) NumInternedStrings() int {
	return len(*iso.strings.Load())
}

func (iso *Isolate) String() string {
	return fmt.Sprintf("isolate %d (%s, %s)", iso.id, iso.name, iso.State())
}
