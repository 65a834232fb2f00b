package heap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ijvm/internal/classfile"
)

// ErrOutOfMemory is returned by allocation when the heap limit would be
// exceeded. The interpreter responds by running a collection and retrying;
// a second failure surfaces as java/lang/OutOfMemoryError in the guest.
var ErrOutOfMemory = errors.New("heap: out of memory")

// DefaultLimit is the default heap capacity (64 MiB modelled bytes).
const DefaultLimit = 64 << 20

// AllocStats are the monotonic per-isolate allocation counters maintained
// at allocation time (creator-charged, per the paper), as a plain-integer
// snapshot of the atomic AllocCounters.
type AllocStats struct {
	Objects     int64
	Bytes       int64
	Connections int64
}

// AllocCounters are the live per-isolate allocation counters. They are
// atomics because they are charged from every allocating context —
// scheduler workers flushing core.ByteBatch batches, the sequential
// engine, and host-side allocators — and read by admin-side snapshot
// code at any time.
type AllocCounters struct {
	Objects     atomic.Int64
	Bytes       atomic.Int64
	Connections atomic.Int64
}

// Heap is the single shared heap of the VM. All isolates allocate from it;
// isolation is purely logical (per-isolate statics/strings/Class objects),
// exactly as in the paper.
//
// # Allocation domains
//
// Allocation is organized into per-shard allocation domains
// (AllocDomain): each executing context — one scheduler worker, the
// sequential engine, the host-side fallback — owns a private domain and
// allocates through it with no global mutex. A domain owns its object
// list (merged only at the stop-the-world collection), its TLAB slack
// and its object count; the heap limit is enforced by one shared atomic
// reservation counter (used), so admission is a single atomic
// reserve-or-fail and two racing allocators can never jointly exceed the
// limit (there is no check-then-act window).
//
// Per-isolate allocation statistics live in AllocCounters (atomics).
// Domain allocation does NOT charge them: the executing engine batches
// charges in a core.ByteBatch (plain counters, one atomic flush per
// quantum/isolate switch), exactly like instruction accounting. The
// Heap-level Alloc* entry points below — the host path used by setup
// code, RPC endpoint machinery, tests and wake-side throwable
// allocation — serialize on an internal mutex-guarded host domain and
// charge the counters directly, so their accounting is exact without a
// batch to flush.
//
// # Locking discipline
//
// Collect and PreciseAccounting are stop-the-world: they traverse object
// graphs (the slot vector of every object) that running guest code mutates
// without locks, and they compact every domain's object list, so the
// caller — VM.CollectGarbage via the scheduler's safepoint — must park
// all workers first. Collect additionally takes the host-domain mutex so
// concurrent host-side allocators (which do not participate in
// safepoints) cannot race the sweep. Host-side metric reads (Used,
// NumObjects, GCCount, stats accessors) are lock-free at any time.
type Heap struct {
	limit int64
	// used is the shared reservation counter: every admission reserves
	// its size with a CAS against limit before the object becomes
	// visible. GC subtracts freed bytes; ResizeNative may push it over
	// the limit (native buffers escape the Java heap limit) and the
	// overshoot is reconciled at the next collection.
	used atomic.Int64

	// domains is the copy-on-write registry of allocation domains;
	// domainMu serializes growth. The slice is append-only and published
	// atomically so aggregate reads (NumObjects) take no lock.
	domainMu sync.Mutex
	domains  atomic.Pointer[[]*AllocDomain]

	// host is the mutex-guarded fallback domain of the Heap-level Alloc*
	// entry points. hostMu also excludes host allocators during Collect.
	hostMu sync.Mutex
	host   *AllocDomain

	// counters is the per-isolate allocation-counter table, indexed by
	// IsolateID (IDs are dense and assigned in creation order);
	// countersMu serializes growth, reads are lock-free.
	countersMu sync.Mutex
	counters   atomic.Pointer[[]*AllocCounters]

	gcCount atomic.Int64

	// cycle is the open incremental collection cycle (nil when idle);
	// barrier is armed exactly while a cycle's mark phase is open, and
	// is what the interpreter's reference-store fast path polls.
	// gcThreshold is the occupancy (bytes) at which the engines open a
	// background cycle (0 disables); incCycles and barrierRecords are
	// monotonic diagnostics. See gc.go for the phase machinery.
	cycle          atomic.Pointer[gcCycle]
	barrier        atomic.Bool
	gcThreshold    atomic.Int64
	incCycles      atomic.Int64
	barrierRecords atomic.Int64

	// trackAlloc enables the per-isolate allocation counters; the
	// baseline (Shared) VM disables it — no resource accounting exists
	// there, which is part of the A3-A6 story and of I-JVM's measured
	// allocation overhead (§4.2: "18% overhead ... due to resource
	// accounting, testing the memory limit ...").
	trackAlloc atomic.Bool

	// liveByIso is the result of the last accounting collection,
	// published atomically (written only under the collection's
	// stop-the-world section).
	liveByIso atomic.Pointer[map[IsolateID]*LiveStats]

	// gcMu serializes collections (belt and braces under the
	// stop-the-world contract).
	gcMu sync.Mutex

	// sharedPins is the reference-counted root table of cross-isolate
	// shared payloads (see frozen.go); sharedPinMu guards it. Every
	// terminal trace injects the pinned objects as creator-charged roots.
	sharedPinMu sync.Mutex
	sharedPins  map[*Object]int64
}

// LiveStats are the per-isolate results of one accounting collection.
type LiveStats struct {
	Objects     int64
	Bytes       int64
	Connections int64
}

// New creates a heap with the given capacity in modelled bytes; limit <= 0
// selects DefaultLimit.
func New(limit int64) *Heap {
	if limit <= 0 {
		limit = DefaultLimit
	}
	h := &Heap{limit: limit}
	empty := []*AllocDomain{}
	h.domains.Store(&empty)
	counters := []*AllocCounters{}
	h.counters.Store(&counters)
	h.trackAlloc.Store(true)
	h.host = h.NewDomain()
	return h
}

// SetAllocTracking toggles the per-isolate allocation counters (disabled
// by the baseline VM at construction).
func (h *Heap) SetAllocTracking(on bool) { h.trackAlloc.Store(on) }

// TrackAlloc reports whether per-isolate allocation counters are
// maintained. Callers charging through a core.ByteBatch consult it
// before noting a charge.
func (h *Heap) TrackAlloc() bool { return h.trackAlloc.Load() }

// Limit returns the heap capacity in modelled bytes.
func (h *Heap) Limit() int64 { return h.limit }

// Used returns the modelled bytes currently allocated: the shared
// reservation counter minus the domains' published TLAB slack. Lock-free.
// A domain publishes at its owner's quantum boundaries and refills (see
// AllocDomain), so mid-quantum the figure may trail by what the running
// quanta have allocated since — the contract the batched byte accounts
// already have. It is exact whenever every domain's owner is at a
// boundary, and after every collection.
func (h *Heap) Used() int64 {
	used := h.used.Load()
	for _, d := range *h.domains.Load() {
		used -= d.reserved.Load()
	}
	return used
}

// NumObjects returns the number of live (unswept) objects, aggregated
// from the domains' published counts without taking a lock; it trails
// like Used.
func (h *Heap) NumObjects() int {
	var n int64
	for _, d := range *h.domains.Load() {
		n += d.count.Load()
	}
	return int(n)
}

// GCCount returns the number of collections run so far.
func (h *Heap) GCCount() int64 { return h.gcCount.Load() }

// PressurePercent returns current occupancy as a percentage of the
// heap limit (0-100, saturating) — the admission-control pressure
// signal. Lock-free; precision follows Used().
func (h *Heap) PressurePercent() int64 {
	if h.limit <= 0 {
		return 0
	}
	pct := h.Used() * 100 / h.limit
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	return pct
}

// CountersFor returns the live allocation counters of an isolate,
// creating the slot on first use. The lookup is lock-free after the
// first access (an atomic load plus an index).
func (h *Heap) CountersFor(iso IsolateID) *AllocCounters {
	if iso < 0 {
		iso = 0 // NoIsolate never allocates; fold defensively onto isolate 0
	}
	tab := *h.counters.Load()
	if int(iso) < len(tab) {
		return tab[iso]
	}
	return h.growCounters(iso)
}

func (h *Heap) growCounters(iso IsolateID) *AllocCounters {
	h.countersMu.Lock()
	defer h.countersMu.Unlock()
	tab := *h.counters.Load()
	if int(iso) < len(tab) {
		return tab[iso]
	}
	grown := make([]*AllocCounters, iso+1)
	copy(grown, tab)
	for i := len(tab); i < len(grown); i++ {
		grown[i] = &AllocCounters{}
	}
	h.counters.Store(&grown)
	return grown[iso]
}

// AllocStatsFor returns a copy of the monotonic allocation counters of an
// isolate.
func (h *Heap) AllocStatsFor(iso IsolateID) AllocStats {
	if iso < 0 {
		return AllocStats{}
	}
	tab := *h.counters.Load()
	if int(iso) >= len(tab) {
		return AllocStats{}
	}
	c := tab[iso]
	return AllocStats{
		Objects:     c.Objects.Load(),
		Bytes:       c.Bytes.Load(),
		Connections: c.Connections.Load(),
	}
}

// LiveStatsFor returns the per-isolate live memory computed by the last
// accounting collection.
func (h *Heap) LiveStatsFor(iso IsolateID) LiveStats {
	m := h.liveByIso.Load()
	if m == nil {
		return LiveStats{}
	}
	if s, ok := (*m)[iso]; ok {
		return *s
	}
	return LiveStats{}
}

// SeedAllocCounters overwrites an isolate's monotonic allocation counters
// with absolute values. The snapshot-clone path uses it so a freshly
// materialized clone reports exactly the allocation totals the warmed
// template had at capture (the clone's graph was charged normally during
// materialization; seeding replaces those charges with the canonical
// warm-up totals). Callers seed only while the isolate runs no guest
// code.
func (h *Heap) SeedAllocCounters(iso IsolateID, stats AllocStats) {
	c := h.CountersFor(iso)
	c.Objects.Store(stats.Objects)
	c.Bytes.Store(stats.Bytes)
	c.Connections.Store(stats.Connections)
}

// ResetIsolateStats clears every heap-side statistic of an isolate —
// monotonic allocation counters and the live-usage entry of the last
// accounting collection — so a recycled isolate ID starts with a clean
// slate. The live map is republished copy-on-write under gcMu (the same
// serialization collections use), so a reset never races a terminal
// trace's publication.
func (h *Heap) ResetIsolateStats(iso IsolateID) {
	h.SeedAllocCounters(iso, AllocStats{})
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	if m := h.liveByIso.Load(); m != nil {
		if _, ok := (*m)[iso]; ok {
			fresh := make(map[IsolateID]*LiveStats, len(*m))
			for k, v := range *m {
				if k != iso {
					fresh[k] = v
				}
			}
			h.liveByIso.Store(&fresh)
		}
	}
}

// chargeAlloc records one admitted object on the creator's counters
// (direct atomic adds; the host path's exact counterpart of the engines'
// batched core.ByteBatch charging).
func (h *Heap) chargeAlloc(creator IsolateID, o *Object) {
	if !h.trackAlloc.Load() {
		return
	}
	c := h.CountersFor(creator)
	c.Objects.Add(1)
	c.Bytes.Add(o.Size())
	if o.IsConnection() {
		c.Connections.Add(1)
	}
}

// reserve is the single-step admission check: one atomic reserve-or-fail
// against the shared used counter. There is no check-then-act window —
// two racing allocators can never jointly exceed the limit, because the
// CAS serializes their reservations (the former WouldExceed/admit TOCTOU
// is structurally gone).
func (h *Heap) reserve(sz int64) error {
	for {
		used := h.used.Load()
		if used+sz > h.limit {
			return h.oomError(sz)
		}
		if h.used.CompareAndSwap(used, used+sz) {
			return nil
		}
	}
}

// --- Allocation domains ---------------------------------------------------

// AllocDomain is one shard-local allocation context. Exactly one
// executing goroutine may allocate through a domain at a time (a
// scheduler worker, the sequential engine's goroutine, or the heap's own
// mutex-guarded host path); the object list, the TLAB slack and the
// object count are owned by that goroutine, as plain fields, and are only
// touched by other code inside the stop-the-world collection. Admission
// therefore performs no locked instruction at all.
//
// Aggregate metrics (Used, NumObjects) read the published copies of the
// slack and the count, which the owner refreshes at its quantum
// boundaries (Publish), at every refill, and — on the host path — after
// every allocation. A domain that changes owners (a worker exiting, the
// next one adopting it) does so through Handoff, under the domain's lock,
// which the collection also holds while it reclaims the slack: the one
// moment an owner and a collection can touch a domain at once.
type AllocDomain struct {
	h       *Heap
	objects []*Object
	// finalizable is the sublist of objects whose class has a finalizer
	// that has not been scheduled yet; the collector's finalizer pass
	// walks it instead of every object. Same ownership as objects.
	finalizable []*Object
	// slack is the domain's TLAB slack: bytes already reserved from the
	// shared used counter but not yet consumed by an object. live is the
	// domain's object count. Both owner-plain.
	slack, live int64
	// reserved and count are slack and live as last published, read by
	// Used and NumObjects on any goroutine.
	reserved atomic.Int64
	count    atomic.Int64
	// mu orders an ownership handoff with a collection running beside it.
	mu sync.Mutex
	// slab is what is left of the domain's current block of object
	// headers (header).
	slab []Object
	// seq drives monitor-stripe assignment: a cheap per-domain counter,
	// seeded per domain so concurrently allocating shards spread over
	// different stripes.
	seq uint32
	// bornLive accumulates the per-isolate live-stat charges of objects
	// allocated while a mark phase was open (allocate-black objects
	// never pass through a marker, so without this they would be absent
	// from the cycle's published per-isolate live stats until the next
	// exact collection). Owner-written like the object list; the
	// terminal stop-the-world merges and clears it, an abandoned cycle
	// discards it (the fresh exact pass recomputes charges).
	bornLive map[IsolateID]*LiveStats
}

// domainChunk is the TLAB refill granularity: a domain reserves this
// much extra from the shared counter per refill, so the steady-state
// admission is a plain subtraction from shard-local slack with no shared
// atomic at all. Unused slack counts as used until a collection reclaims
// it (bounded by domains x domainChunk); near the limit, refills fall
// back to exact-size reservation so small heaps never strand their last
// bytes in slack.
const domainChunk = 4096

// slabHeaders is how many object headers one host allocation carries
// (8 × 64 bytes: one 512-byte size class). Headers are never recycled, so
// a swept header stays an emptied object for as long as the host holds
// it; see README.md, "Header slabs".
const slabHeaders = 8

// NewDomain registers and returns a fresh allocation domain. Domains are
// cheap and long-lived; execution engines acquire one per worker and
// recycle it across runs.
func (h *Heap) NewDomain() *AllocDomain {
	h.domainMu.Lock()
	defer h.domainMu.Unlock()
	old := *h.domains.Load()
	d := &AllocDomain{h: h, seq: uint32(len(old)) * 0x9E37}
	grown := make([]*AllocDomain, len(old)+1)
	copy(grown, old)
	grown[len(old)] = d
	h.domains.Store(&grown)
	return d
}

// Heap returns the heap the domain allocates from.
func (d *AllocDomain) Heap() *Heap { return d.h }

// Publish copies the owner-plain slack and object count into the
// published fields Used and NumObjects read. Owner only: the engines call
// it at every quantum boundary, before the owner can park.
func (d *AllocDomain) Publish() {
	d.reserved.Store(d.slack)
	d.count.Store(d.live)
}

// Handoff publishes like Publish, under the domain's lock. Call it when
// the domain changes owner — the releasing goroutine before it lets go,
// the adopting one before its first allocation: a worker that exits is
// no longer parked for a stop-the-world, so its release may run beside a
// collection, which takes the same lock to reclaim the slack.
func (d *AllocDomain) Handoff() {
	d.mu.Lock()
	d.Publish()
	d.mu.Unlock()
}

// refill grows the domain's slack by at least need bytes: it reserves
// need+domainChunk from the shared counter, falling back to the exact
// need when the chunk no longer fits (so admission near the limit stays
// byte-exact rather than failing on slack it does not need). The new
// slack is published at once, so Used never counts a reservation the
// published slack does not offset.
func (d *AllocDomain) refill(need int64) error {
	want := need + domainChunk
	if err := d.h.reserve(want); err != nil {
		want = need
		if err := d.h.reserve(want); err != nil {
			return err
		}
	}
	d.slack += want
	d.Publish()
	return nil
}

// oomError is the admission failure for a request of sz modelled bytes.
func (h *Heap) oomError(sz int64) error {
	return fmt.Errorf("%w: need %d bytes, %d of %d used", ErrOutOfMemory, sz, h.used.Load(), h.limit)
}

// take reserves sz modelled bytes for one object: from the domain's TLAB
// slack when it suffices, refilling from the shared counter otherwise.
// Every Alloc* calls it before it materialises anything, so a request
// the limit refuses costs the host no memory.
func (d *AllocDomain) take(sz int64) error {
	if d.slack >= sz {
		// TLAB fast path: consume shard-local slack, no shared access.
		d.slack -= sz
		return nil
	}
	if sz > d.h.limit {
		// Also keeps the reservation arithmetic from overflowing.
		return d.h.oomError(sz)
	}
	if err := d.refill(sz - d.slack); err != nil {
		return err
	}
	d.slack -= sz
	return nil
}

// header returns a zeroed object header from the domain's current slab,
// starting a new slab of slabHeaders when it is used up: one host
// allocation per slabHeaders guest objects instead of one each.
func (d *AllocDomain) header() *Object {
	if len(d.slab) == 0 {
		d.slab = new([slabHeaders]Object)[:]
	}
	o := &d.slab[0]
	d.slab = d.slab[1:]
	return o
}

// admit stamps the identity fields of an object whose sz bytes take
// already reserved and appends it to the domain. It does not charge
// per-isolate statistics — the executing engine batches those
// (core.ByteBatch); the Heap-level entry points charge directly.
func (d *AllocDomain) admit(o *Object, sz int64, flags uint32, creator IsolateID) *Object {
	o.size = sz
	o.Creator = creator
	o.Charged = NoIsolate
	if d.h.barrier.Load() {
		// Allocate-black: objects born during an open mark phase are
		// marked at birth, so the cycle never sweeps them and their
		// initializing stores need no barrier (a marker skips marked
		// objects, so it never scans a half-built one). They are
		// charged to their creator in the cycle's live stats here —
		// markers never see them.
		flags |= flagMark
		o.Charged = creator
		if d.bornLive == nil {
			d.bornLive = make(map[IsolateID]*LiveStats, 4)
		}
		s, ok := d.bornLive[creator]
		if !ok {
			s = &LiveStats{}
			d.bornLive[creator] = s
		}
		s.Objects++
		s.Bytes += sz
		if flags&flagConnection != 0 {
			s.Connections++
		}
	}
	if flags != 0 {
		o.flags.Store(flags)
	}
	d.seq++
	o.stripe = uint8(d.seq)
	if o.Class != nil && o.Class.HasFinalizer {
		d.finalizable = append(d.finalizable, o)
	}
	d.objects = append(d.objects, o)
	d.live++
	return o
}

// allocSlots admits an object with n null slots: the modelled size is
// reserved first, the slot vector materialised only once admission
// succeeded.
func (d *AllocDomain) allocSlots(class *classfile.Class, n int, flags uint32, creator IsolateID) (*Object, error) {
	if int64(n) > d.h.limit/ValueSlotBytes {
		// More than this heap ever admits, and the size below could overflow.
		return nil, fmt.Errorf("%w: %d slots exceed the %d-byte heap", ErrOutOfMemory, n, d.h.limit)
	}
	sz := ObjectHeaderBytes + ValueSlotBytes*int64(n)
	if err := d.take(sz); err != nil {
		return nil, err
	}
	var slots []Value // stays nil for n == 0: nothing for the host collector to look up
	if n > 0 {
		slots = make([]Value, n)
		for i := range slots {
			slots[i] = Null()
		}
	}
	o := d.header()
	o.Class = class
	if slots != nil { // the header is zeroed: skip the write (and its host write barrier)
		o.Elems = slots
	}
	return d.admit(o, sz, flags, creator), nil
}

// AllocObject allocates an instance of class with zeroed fields.
func (d *AllocDomain) AllocObject(class *classfile.Class, creator IsolateID) (*Object, error) {
	if class == nil {
		return nil, errors.New("heap: AllocObject with nil class")
	}
	return d.allocSlots(class, class.NumFieldSlots, 0, creator)
}

// AllocArray allocates an array of n null/zero slots.
func (d *AllocDomain) AllocArray(class *classfile.Class, n int, creator IsolateID) (*Object, error) {
	if n < 0 {
		return nil, errors.New("heap: negative array size")
	}
	return d.allocSlots(class, n, flagArray, creator)
}

// AllocString allocates a string object with the given payload.
func (d *AllocDomain) AllocString(class *classfile.Class, s string, creator IsolateID) (*Object, error) {
	return d.AllocNative(class, s, int64(len(s)), false, creator)
}

// AllocNative allocates an object with an opaque native payload of the
// given modelled size (system-library state: builders, collections,
// connections). Header and cold record are one host allocation.
func (d *AllocDomain) AllocNative(class *classfile.Class, payload any, size int64, conn bool, creator IsolateID) (*Object, error) {
	sz := ObjectHeaderBytes + size
	if err := d.take(sz); err != nil {
		return nil, err
	}
	var flags uint32
	if conn {
		flags = flagConnection
	}
	return d.admit(newObjectWithCold(class, payload, size), ObjectHeaderBytes, flags, creator), nil
}

// --- Heap-level (host path) allocation ------------------------------------
//
// These entry points serialize on the internal host domain and charge
// the per-isolate counters directly. They are NOT the guest fast path —
// the execution engines allocate through their own domains — but they
// keep every host-side caller (platform setup, RPC copies, wake-side
// throwable allocation, tests) correct without an engine context.

// HostAlloc runs one allocation on the host domain under hostMu, charges
// creator and publishes the domain, so host-path allocation is exact in
// Used and NumObjects at once. It never collects: a refusal is returned as
// ErrOutOfMemory, and what it costs is the caller's decision.
func (h *Heap) HostAlloc(creator IsolateID, alloc func(*AllocDomain) (*Object, error)) (*Object, error) {
	h.hostMu.Lock()
	defer h.hostMu.Unlock()
	o, err := alloc(h.host)
	if err != nil {
		return nil, err
	}
	h.host.Publish()
	h.chargeAlloc(creator, o)
	return o, nil
}

// AllocObject allocates an instance of class with zeroed fields, charging
// the creator isolate.
func (h *Heap) AllocObject(class *classfile.Class, creator IsolateID) (*Object, error) {
	return h.HostAlloc(creator, func(d *AllocDomain) (*Object, error) { return d.AllocObject(class, creator) })
}

// AllocArray allocates an array of n null/zero slots, charging creator.
func (h *Heap) AllocArray(class *classfile.Class, n int, creator IsolateID) (*Object, error) {
	return h.HostAlloc(creator, func(d *AllocDomain) (*Object, error) { return d.AllocArray(class, n, creator) })
}

// AllocString allocates a string object with the given payload, charging
// creator.
func (h *Heap) AllocString(class *classfile.Class, s string, creator IsolateID) (*Object, error) {
	return h.HostAlloc(creator, func(d *AllocDomain) (*Object, error) { return d.AllocString(class, s, creator) })
}

// AllocNative allocates an object with an opaque native payload, charging
// creator.
func (h *Heap) AllocNative(class *classfile.Class, payload any, size int64, conn bool, creator IsolateID) (*Object, error) {
	return h.HostAlloc(creator, func(d *AllocDomain) (*Object, error) {
		return d.AllocNative(class, payload, size, conn, creator)
	})
}

// ResizeNative adjusts the modelled size of an object's native payload
// (e.g. a StringBuilder growing). Shrinking below zero is clamped. It can
// push the heap over its limit; the overshoot is reconciled at the next
// collection, mirroring how native buffers escape the Java heap limit.
// Lock-free: the payload size lives in the object's cold record (Size
// adds it; the header is not written), and racing resizers of one object
// each apply the delta from the value they displaced, so used stays the
// sum of what was applied.
func (h *Heap) ResizeNative(o *Object, newSize int64) {
	if newSize < 0 {
		newSize = 0
	}
	h.used.Add(newSize - o.coldRef().extra.Swap(newSize))
}
