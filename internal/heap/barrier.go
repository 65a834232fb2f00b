package heap

import (
	"sync/atomic"
	"unsafe"
)

// This file is the mutator side of the incremental collector's
// snapshot-at-the-beginning (SATB) write barrier.
//
// # Why slot stores need a special form during marking
//
// While a mark phase is open, markers traverse the slot vectors of reachable
// objects concurrently with guest stores on other shards. The only word
// the marker reads is the reference word (Value.R), so that word — and
// only that word — is published atomically while the barrier is armed:
// mutators store it with StoreSlotBarriered, markers load it with
// loadSlotRef. The scalar words (Kind, I, F) are never read by the
// collector, so they stay plain. Outside a cycle every store is a plain
// Value assignment; the transition between the two regimes happens at a
// stop-the-world (or, sequentially, at an instruction boundary), which
// orders the plain and atomic epochs.
//
// # What gets recorded
//
// SATB's deletion barrier records the *overwritten* reference: every
// reference present in the heap at snapshot time is either still in
// place when its holder is scanned, or its removal was recorded and the
// record is traced before the terminal phase. Combined with the
// snapshot-copied root sets (frames, statics, mirrors, pins — root
// erasures need no barrier because the snapshot holds its own copies)
// and allocate-black admission (objects born during the cycle are
// marked at birth), this keeps every snapshot-reachable object alive.
// Objects that die during the cycle float until the next exact
// collection, which is the standard SATB trade.
//
// # The traced-holder rule
//
// Only an edge deleted *before* its holder is scanned needs a record:
// one deleted after the scan was already followed by it (the weak
// tri-colour argument). So a concurrent scan marks its object traced
// after its last slot load (flagTraced), admission marks allocate-black
// objects traced at birth, and StoreRef — the one reference-slot store
// of an open cycle — stores into a traced holder plainly and records
// nothing. The order comes from the flags word: the marker's
// compare-and-swap that sets the bit follows its slot loads, and the
// store's load that reads the bit precedes its plain write, so a marker
// never reads a slot a plain store writes. An untraced holder takes the
// full barrier: the overwritten reference is returned for recording
// when it is unmarked, and the new one is published atomically. The
// sweep and an abandon clear the bit with the mark bit, so each cycle
// starts with every holder untraced. Stop-the-world drains (exact
// collections, the terminal phase) set no bit: no mutator runs before
// their sweep.

// StoreRef stores v into slot, one of holder's slots, while a mark phase
// is open, and returns the overwritten reference the caller must record
// with the cycle (RecordWrite, FlushSATB), or nil when none needs one.
// A traced holder takes a plain store; any other holder records an
// unmarked overwritten reference and publishes the new reference word
// atomically (StoreSlotBarriered). Outside a cycle a store is a plain
// assignment and callers do not come here.
func StoreRef(holder *Object, slot *Value, v Value) (record *Object) {
	if holder.flags.Load()&flagTraced != 0 {
		*slot = v
		return nil
	}
	old := slot.R
	StoreSlotBarriered(slot, v)
	if old == nil || old.Marked() {
		return nil
	}
	return old
}

// StoreSlotBarriered stores v into *dst, publishing the reference word
// atomically so a concurrent marker never reads a torn or stale pointer.
// It records nothing: guest stores go through StoreRef, which uses it;
// host-side writers into fresh objects (the RPC copier) call it directly.
func StoreSlotBarriered(dst *Value, v Value) {
	dst.Kind = v.Kind
	dst.I = v.I
	dst.F = v.F
	atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(&dst.R)), unsafe.Pointer(v.R))
}

// loadSlotRef is the marker's read of a slot's reference word, paired
// with StoreSlotBarriered's atomic publication.
func loadSlotRef(v *Value) *Object {
	return (*Object)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&v.R))))
}

// LoadSlotRef reads a slot's reference word atomically — the read half
// of StoreSlotBarriered, exported for host-side machinery (the RPC
// copier) that reads reference slots while concurrent markers traverse
// the same objects.
func LoadSlotRef(v *Value) *Object { return loadSlotRef(v) }

// BarrierActive reports whether a mark phase is open and reference
// stores must go through the SATB barrier. One uncontended atomic load;
// the interpreter checks it on every reference-slot store.
func (h *Heap) BarrierActive() bool { return h.barrier.Load() }

// RecordWrite records one overwritten reference with the open cycle —
// the unbuffered barrier path used by host-side mutators and by
// executing threads without an installed allocation state. The engines'
// fast path batches records in their allocation state instead and hands
// them over with FlushSATB.
func (h *Heap) RecordWrite(old *Object) {
	if old == nil || !h.barrier.Load() || old.Marked() {
		return
	}
	c := h.cycle.Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	c.satb = append(c.satb, old)
	c.mu.Unlock()
	h.barrierRecords.Add(1)
}

// FlushSATB hands a mutator's buffered barrier records to the open
// cycle. Records are dropped when no cycle is open (a buffer can outlive
// its cycle only across a stop-the-world, which already drained it).
func (h *Heap) FlushSATB(buf []*Object) {
	if len(buf) == 0 {
		return
	}
	c := h.cycle.Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	n := 0
	for _, o := range buf {
		if o != nil && !o.Marked() {
			c.satb = append(c.satb, o)
			n++
		}
	}
	c.mu.Unlock()
	if n != 0 {
		h.barrierRecords.Add(int64(n))
	}
}

// BarrierRecords returns the number of SATB records taken so far (a
// monotonic diagnostic counter; tests assert the barrier actually fired).
func (h *Heap) BarrierRecords() int64 { return h.barrierRecords.Load() }
