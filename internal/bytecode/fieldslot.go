package bytecode

import "sync/atomic"

// FieldSlot is the resolved-field cache of one prepared getfield/putfield
// site (PInstr.FS). It memoizes the instance-field slot index the site's
// symbolic reference resolves to: the slot is published once with a CAS
// and never changes afterwards (field resolution is a pure function of the
// immutable pool entry), so the fast path is a single atomic load with
// no pool-entry indirection and no pointer chase.
//
// The cache lives on the prepared instruction — not the pool entry — so
// the closure micro of a site captures it when the block is compiled, and
// the reference switch publishes it when it resolves the site on a
// prepared frame.
type FieldSlot struct {
	slot atomic.Int32
}

// fieldSlotEmpty marks an unpublished cache.
const fieldSlotEmpty = -1

// NewFieldSlot returns an empty cache.
func NewFieldSlot() *FieldSlot {
	fs := &FieldSlot{}
	fs.slot.Store(fieldSlotEmpty)
	return fs
}

// Get returns the cached slot index, or a negative value before the
// first resolution.
func (fs *FieldSlot) Get() int32 { return fs.slot.Load() }

// Publish records the resolved slot index. First publisher wins; racing
// resolvers of one site always compute the same slot, so losing the CAS
// is harmless.
func (fs *FieldSlot) Publish(slot int32) {
	fs.slot.CompareAndSwap(fieldSlotEmpty, slot)
}
