package heap

import (
	"sync/atomic"

	"ijvm/internal/classfile"
)

// IsolateID identifies an isolate for accounting purposes. Isolate0 (the
// OSGi runtime) is ID 0; the baseline ("Shared") VM runs everything in
// Isolate0.
type IsolateID int32

// NoIsolate marks an object not yet charged to any isolate.
const NoIsolate IsolateID = -1

// ObjectHeaderBytes is the modelled per-object header size. The paper
// reports that a java.lang.Object instance occupies 28 bytes in LadyVM and
// I-JVM; we reproduce that constant.
const ObjectHeaderBytes = 28

// ValueSlotBytes is the modelled size of one field or array slot.
const ValueSlotBytes = 8

// Monitor is the lock state of an object. Blocking and wait queues are
// managed by the scheduler; the heap only records ownership.
type Monitor struct {
	// Owner is the owning thread ID, or 0 when unlocked.
	Owner int64
	// Count is the recursive acquisition count.
	Count int32
}

// Object is one heap object or array: a 64-byte hot header (one cache
// line, one Go size class) plus, for the few objects that need it, a cold
// record behind one pointer. The three pointer words come first so the
// host collector's scan of a header stops after 24 bytes. The layout is
// pinned by TestObjectLayout; see README.md, "Object layout".
type Object struct {
	Class *classfile.Class
	// cold holds what few objects have: native payload, monitor word,
	// identity hash, native payload size. Nil until first needed.
	cold atomic.Pointer[coldRecord]
	// Elems is the object's slot vector: the array elements of an array,
	// the instance fields (indexed by classfile.Field.Slot) of anything
	// else. IsArray tells the two apart.
	Elems []Value

	// size is the modelled base size: the header and the slots. Admission
	// writes it before the object is published and nothing writes it
	// again; a native payload's bytes live in the cold record (extra),
	// and Size adds them.
	size int64

	// Creator is the isolate that allocated the object; allocation is
	// charged to it immediately (paper §3.2, "Memory and connections").
	Creator IsolateID
	// Charged is the isolate the last accounting GC charged the object to
	// ("the first isolate that references it"), or NoIsolate before the
	// first collection.
	Charged IsolateID

	// flags is the object's bit set (flag* below). The word is shared by
	// the collector (mark, finalized), host-side freezing and the
	// immutable shape bits, so every update after admission is a
	// compare-and-swap.
	flags atomic.Uint32
	// stripe is the object's monitor-stripe index, assigned at admission
	// from the allocating domain's sequence so concurrently allocating
	// shards spread over different stripes. The interpreter masks it into
	// its striped monitor table.
	stripe uint8
	// dead marks objects a collection swept. Not a flags bit: the sweep
	// sets it on every object it frees — in a churn, most of the list —
	// and a plain store under the stopped world costs a cycle where a
	// compare-and-swap costs twenty. Read by tests after the collection.
	dead bool
}

// sweep empties a header the collection frees: it is marked dead and lets
// go of its slot vector and cold record, so a header that stays allocated
// because a live neighbour shares its slab (AllocDomain.header) holds no
// more than its own 64 bytes. Headers are never reused: a stale host
// pointer finds an emptied object, never another live one. The world is
// stopped.
func (o *Object) sweep() {
	o.dead = true
	if o.Elems != nil {
		o.Elems = nil
	}
	if o.cold.Load() != nil {
		o.cold.Store(nil)
	}
}

// Object flag bits.
const (
	// flagMark is the collector's mark bit. Incremental marking runs
	// concurrently with mutators and with other markers: a marker claims
	// an object with a compare-and-swap (tryMark), the write barrier
	// consults it lock-free (Marked), and admission sets it during an open
	// cycle (allocate-black). Outside a cycle it is always clear (every
	// completed or abandoned cycle resets it).
	flagMark uint32 = 1 << iota
	// flagFrozen marks a deeply immutable array (see Freeze). The
	// interpreter's array-store path consults it while host-side RPC
	// machinery freezes payloads on other goroutines.
	flagFrozen
	// flagArray marks arrays; set at allocation, immutable.
	flagArray
	// flagConnection marks connection-like objects (FileDescriptor/Socket)
	// that are counted separately per isolate; set at allocation,
	// immutable.
	flagConnection
	// flagFinalized marks objects whose finalizer has been scheduled; a
	// finalizer runs at most once, and the object is reclaimed by the
	// following collection (unless the finalizer resurrected it).
	flagFinalized
	// flagTraced marks an object whose slots the open cycle no longer
	// reads: a concurrent marker set it after its last slot load, or
	// admission set it with flagMark (allocate-black). A store into a
	// traced object is a plain store (StoreRef). It implies flagMark, and
	// the sweep and an abandon clear both in one compare-and-swap.
	flagTraced
)

// flagMarks is the per-cycle part of the flags word.
const flagMarks = flagMark | flagTraced

// coldRecord is the lazily attached part of an object. Strings and
// native-payload objects are born with theirs in the same host
// allocation (objectWithCold); any other object gets one the first time
// it is locked, hashed or given a payload.
type coldRecord struct {
	// native is the string payload, native collection state, connection…
	native any
	// monitor is guarded by the interpreter's stripe lock for the object.
	monitor Monitor
	// identityHash is the lazily assigned Object.hashCode value (0 means
	// unassigned).
	identityHash atomic.Int64
	// extra is the native payload size; Size adds it to the base size.
	extra atomic.Int64
}

// objectWithCold is the single host allocation behind a string or
// native-payload object: header and cold record side by side.
type objectWithCold struct {
	Object
	cold coldRecord
}

// newObjectWithCold returns a header whose cold record is already
// attached and shares its allocation.
func newObjectWithCold(class *classfile.Class, native any, extra int64) *Object {
	oc := &objectWithCold{Object: Object{Class: class}}
	oc.cold.native = native
	oc.cold.extra.Store(extra)
	oc.Object.cold.Store(&oc.cold)
	return &oc.Object
}

// coldRef returns the object's cold record, attaching a fresh one on
// first use. Racing attachers agree on one record: the loser of the
// compare-and-swap adopts the winner's.
func (o *Object) coldRef() *coldRecord {
	if c := o.cold.Load(); c != nil {
		return c
	}
	c := &coldRecord{}
	if o.cold.CompareAndSwap(nil, c) {
		return c
	}
	return o.cold.Load()
}

// Native returns the object's native payload (string payload, native
// collection state, connection…), or nil.
func (o *Object) Native() any {
	if c := o.cold.Load(); c != nil {
		return c.native
	}
	return nil
}

// SetNative installs a native payload on an allocated object (the
// system-library constructors do, on the instance `new` gave them).
func (o *Object) SetNative(payload any) { o.coldRef().native = payload }

// Monitor returns the object's lock word. Reads and writes of it happen
// under the interpreter's stripe lock for the object; resolve the word
// before taking the stripe (the first call may allocate the cold record).
func (o *Object) Monitor() *Monitor { return &o.coldRef().monitor }

// IdentityHash returns the object's assigned Object.hashCode value, or 0
// when none was assigned yet.
func (o *Object) IdentityHash() int64 {
	if c := o.cold.Load(); c != nil {
		return c.identityHash.Load()
	}
	return 0
}

// AssignIdentityHash assigns h unless a hash was assigned already and
// returns the object's hash: racing assigners all get the winner's value.
func (o *Object) AssignIdentityHash(h int64) int64 {
	c := o.coldRef()
	if c.identityHash.CompareAndSwap(0, h) {
		return h
	}
	return c.identityHash.Load()
}

// setFlag and clearFlag update the flags word with a compare-and-swap
// loop (the module targets go 1.22: no atomic And/Or) and report whether
// this call changed it: whether it set the bit, or cleared any of the
// bits given.
func (o *Object) setFlag(bit uint32) bool {
	for {
		f := o.flags.Load()
		if f&bit != 0 {
			return false
		}
		if o.flags.CompareAndSwap(f, f|bit) {
			return true
		}
	}
}

func (o *Object) clearFlag(bit uint32) bool {
	for {
		f := o.flags.Load()
		if f&bit == 0 {
			return false
		}
		if o.flags.CompareAndSwap(f, f&^bit) {
			return true
		}
	}
}

func (o *Object) hasFlag(bit uint32) bool { return o.flags.Load()&bit != 0 }

// Dead reports whether the object was swept by a previous collection. Used
// by tests asserting GC soundness.
func (o *Object) Dead() bool { return o.dead }

// Size returns the modelled byte size of the object: its base size plus
// the native payload, if it has one.
func (o *Object) Size() int64 {
	if c := o.cold.Load(); c != nil {
		return o.size + c.extra.Load()
	}
	return o.size
}

// Marked reports the object's mark bit. During an incremental cycle a
// marked object is black (or allocate-black); between cycles the bit is
// always clear. The write barrier uses it to skip already-safe objects.
func (o *Object) Marked() bool { return o.hasFlag(flagMark) }

// tryMark claims the object for one marker: exactly one caller per cycle
// wins, and only the winner charges live statistics and scans children.
func (o *Object) tryMark() bool { return o.setFlag(flagMark) }

// Traced reports whether the open cycle is done reading the object's
// slots (see flagTraced); between cycles it is always false.
func (o *Object) Traced() bool { return o.hasFlag(flagTraced) }

// MonitorStripe returns the object's monitor-stripe index (assigned once
// at admission, immutable afterwards).
func (o *Object) MonitorStripe() uint8 { return o.stripe }

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.hasFlag(flagArray) }

// IsConnection reports whether the object is connection-like
// (FileDescriptor/Socket); those are counted separately per isolate.
func (o *Object) IsConnection() bool { return o.hasFlag(flagConnection) }

// StringValue returns the native string payload. The boolean reports
// whether the object is a string.
func (o *Object) StringValue() (string, bool) {
	s, ok := o.Native().(string)
	return s, ok
}
