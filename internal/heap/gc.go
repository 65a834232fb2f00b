package heap

import "sync"

// This file is the collector: an incremental, mostly-concurrent
// snapshot-at-the-beginning (SATB) mark-sweep over the per-domain object
// lists, with a degenerate stop-the-world composition (Collect) that
// reproduces the paper's accounting algorithm exactly.
//
// # Phases
//
//   - BeginCycle (stop-the-world, brief): the caller snapshots the
//     per-isolate root sets (copied slices — later root mutations never
//     touch them), the barrier is armed, and the cycle opens. No tracing
//     happens here.
//   - MarkQuantum (concurrent): executing shards perform bounded mark
//     work at quantum boundaries. Work is distributed through a shared
//     gray pool: markers take chunks from it ("stealing" each other's
//     spilled work), trace through per-call local stacks, and spill
//     excess back so other shards can pick it up. The root cursor is
//     advanced strictly in isolate order, so first-tracer charging keeps
//     the paper's per-isolate ordering; objects whose native payloads
//     hold references (RefHolder) are deferred to the terminal phase,
//     because guest natives mutate those payloads without barriered
//     slots.
//   - FinishCycle (stop-the-world, short): residual gray work, buffered
//     SATB records and deferred native payloads are drained, the
//     terminal root sets are re-scanned (new threads, pins and
//     host-held references that appeared mid-cycle), the finalizer pass
//     resurrects unreachable finalizable objects, and the sweep
//     compacts every domain's list, reclaims TLAB slack and publishes
//     the per-isolate live statistics.
//
// # Exactness
//
// Collect — the allocation-pressure and explicit-GC entry point — is
// always exact: if an incremental cycle is open it is *abandoned* (marks
// cleared, gray state dropped, barrier disarmed) and a fresh full
// mark-sweep runs from the current roots inside the same stopped-world
// section. Abandoning rather than finishing keeps the pinned invariants
// — post-GC Used() == live bytes, first-tracer charging in isolate
// order, identical collection points across collector configurations —
// because a finished stale cycle would retain SATB floating garbage
// that a stop-the-world collection at the same point would free.
// Incremental cycles that complete on their own (FinishCycle) accept
// that floating garbage; the next exact collection reclaims it.

// RootSet is the accounting root set of one isolate: the isolate's interned
// strings, static variables, java.lang.Class objects, and the objects
// referenced by stack frames executing in the isolate (paper §3.2, steps 2
// and 3). Root sets are traced in slice order and an object is charged to
// the first isolate that reaches it (step 4).
type RootSet struct {
	Isolate IsolateID
	Refs    []*Object
}

// CollectResult summarizes one accounting collection.
type CollectResult struct {
	FreedObjects int64
	FreedBytes   int64
	LiveObjects  int64
	LiveBytes    int64
	// Live is each isolate's share of the survivors under first-tracer
	// charging (§3.2 step 4), keyed by isolate ID; an isolate absent from
	// it holds nothing live. The heap keeps no copy: the caller hands it
	// to the isolates (core.World.UpdateDisposal), which share its
	// entries, so it is read-only.
	Live map[IsolateID]*LiveStats
	// PendingFinalize lists unreachable objects whose finalize() must run
	// before they can be reclaimed. They (and their subgraphs) survived
	// this collection; the VM schedules their finalizers, and the next
	// collection frees them unless the finalizer resurrected them.
	PendingFinalize []*Object
}

// grayItem is one unit of pending mark work: an object plus the isolate
// it will be charged to if this item's marker claims it first.
type grayItem struct {
	obj *Object
	iso IsolateID
}

// gcCycle is the state of one open collection cycle. All fields are
// guarded by mu except rootSets' contents, which are immutable snapshot
// copies readable without a lock.
type gcCycle struct {
	mu sync.Mutex
	// rootSets is the snapshot taken at BeginCycle; setIdx/refIdx is the
	// shared cursor markers advance through it in isolate order.
	rootSets []RootSet
	setIdx   int
	refIdx   int
	// gray is the shared overflow pool markers steal chunks from and
	// spill excess local work into.
	gray []grayItem
	// satb holds flushed, not-yet-traced barrier records; they are
	// traced charged to their creator (the snapshot kept them alive, so
	// no isolate "reached" them this cycle).
	satb []*Object
	// deferred holds marked objects whose native payload (RefHolder)
	// must be scanned in the terminal stop-the-world phase.
	deferred []grayItem
	// active counts markers currently holding private (local-stack)
	// work; the cycle is exhausted only when it is zero and every queue
	// above is empty.
	active int
	// live accumulates the per-isolate first-tracer charges.
	live map[IsolateID]*LiveStats
}

func newCycle(rootSets []RootSet) *gcCycle {
	return &gcCycle{rootSets: rootSets, live: make(map[IsolateID]*LiveStats, len(rootSets))}
}

func (c *gcCycle) liveStats(iso IsolateID) *LiveStats {
	s, ok := c.live[iso]
	if !ok {
		s = &LiveStats{}
		c.live[iso] = s
	}
	return s
}

// exhaustedLocked reports whether no mark work remains anywhere; c.mu held.
func (c *gcCycle) exhaustedLocked() bool {
	return c.active == 0 && len(c.gray) == 0 && len(c.satb) == 0 && c.setIdx >= len(c.rootSets)
}

// --- Cycle control --------------------------------------------------------

// BeginCycle opens an incremental cycle over the given snapshot root
// sets and arms the write barrier. The caller must hold the world
// stopped (all mutators at instruction boundaries with their barrier
// buffers flushed); the pause is O(roots) for the snapshot the caller
// built, no tracing happens here. Returns false if a cycle is already
// open.
func (h *Heap) BeginCycle(rootSets []RootSet) bool {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	if h.cycle.Load() != nil {
		return false
	}
	h.cycle.Store(newCycle(rootSets))
	h.barrier.Store(true)
	h.incCycles.Add(1)
	return true
}

// CycleOpen reports whether an incremental cycle is in progress.
func (h *Heap) CycleOpen() bool { return h.cycle.Load() != nil }

// IncrementalCycles returns the number of cycles opened so far
// (including cycles later abandoned by an exact collection).
func (h *Heap) IncrementalCycles() int64 { return h.incCycles.Load() }

// NeedCycle reports whether occupancy crossed the background-cycle
// threshold and no cycle is open. The engines poll it at quantum
// boundaries.
func (h *Heap) NeedCycle() bool {
	t := h.gcThreshold.Load()
	return t > 0 && h.cycle.Load() == nil && h.Used() >= t
}

// SetGCThreshold sets the occupancy (in bytes) at which NeedCycle starts
// reporting true; 0 disables background cycles.
func (h *Heap) SetGCThreshold(bytes int64) { h.gcThreshold.Store(bytes) }

// CrossedThreshold is the allocation-path twin of NeedCycle: a cheap
// check (one atomic load of the reservation counter, which transiently
// includes TLAB slack) the engines use to attribute a background-cycle
// activation to the isolate whose allocation drove occupancy over the
// threshold — the paper's "collections are charged to the isolate whose
// allocations force them" rule, kept for threshold-triggered cycles.
func (h *Heap) CrossedThreshold() bool {
	t := h.gcThreshold.Load()
	return t > 0 && h.used.Load() >= t && h.cycle.Load() == nil
}

// MarkQuantum performs up to budget units of mark work (one unit ≈ one
// object claimed and scanned) and reports whether the cycle's mark work
// is exhausted. Safe to call from any number of shards concurrently; a
// false return with no open cycle means there is nothing to do.
func (h *Heap) MarkQuantum(budget int) (done bool) {
	c := h.cycle.Load()
	if c == nil {
		return false
	}
	m := getMarker(h, c)
	done = m.run(budget, false)
	putMarker(m)
	return done
}

// FinishCycle runs the terminal stop-the-world phase of an open cycle:
// residual mark work, deferred native payloads, a re-scan of the
// current root sets, the finalizer pass, and the sweep. The caller must
// hold the world stopped with every barrier buffer flushed. Returns
// false if no cycle is open.
func (h *Heap) FinishCycle(rescan []RootSet) (CollectResult, bool) {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	h.hostMu.Lock()
	defer h.hostMu.Unlock()
	c := h.cycle.Load()
	if c == nil {
		return CollectResult{}, false
	}
	return h.terminateLocked(c, rescan), true
}

// Collect runs one exact stop-the-world accounting collection
// implementing the paper's algorithm:
//
//  1. per-isolate memory/connection usage is reset to zero;
//  2. each isolate's roots (statics, strings, Class objects) are added;
//  3. stack frames contribute roots attributed to the frame's isolate
//     (system-library frames excluded — the caller builds the root sets);
//  4. roots are traced per isolate; an object is charged to the first
//     isolate that traces it.
//
// Unreachable objects with unexecuted finalizers are kept alive (charged
// to their creator) and reported in PendingFinalize; everything else
// unmarked is swept. An open incremental cycle is abandoned first, so
// the result is byte-exact regardless of collector configuration. The
// world must be stopped: the trace touches object graphs mutators write
// without locks, and the sweep compacts every domain's list; hostMu
// additionally excludes the (safepoint-oblivious) host-path allocators.
func (h *Heap) Collect(rootSets []RootSet) CollectResult {
	h.gcMu.Lock()
	defer h.gcMu.Unlock()
	h.hostMu.Lock()
	defer h.hostMu.Unlock()
	h.abandonLocked()
	c := newCycle(rootSets)
	h.cycle.Store(c)
	return h.terminateLocked(c, nil)
}

// abandonLocked discards an open cycle: every mark and traced bit set so
// far is cleared (including allocate-black objects), the gray/SATB state
// is dropped and the barrier disarmed. gcMu held, world stopped.
func (h *Heap) abandonLocked() {
	c := h.cycle.Load()
	if c == nil {
		return
	}
	h.barrier.Store(false)
	h.cycle.Store(nil)
	for _, d := range *h.domains.Load() {
		for _, o := range d.objects {
			o.clearFlag(flagMarks)
		}
		// Discard the cycle's allocate-black charges: the exact pass
		// that follows recomputes every charge from fresh roots.
		d.bornLive = nil
	}
}

// terminateLocked drains all remaining mark work of c, re-scans the
// terminal roots, runs the finalizer pass and sweeps. gcMu and hostMu
// held, world stopped.
func (h *Heap) terminateLocked(c *gcCycle, rescan []RootSet) CollectResult {
	h.gcCount.Add(1)
	m := getMarker(h, c)
	defer putMarker(m)
	m.run(-1, true)

	// Terminal re-scan: roots that appeared after the snapshot (new
	// threads, pins, host references). The SATB barrier already covers
	// heap-internal mutation, so in the degenerate back-to-back
	// composition this finds nothing new.
	c.mu.Lock()
	for _, rs := range rescan {
		for _, root := range rs.Refs {
			if root != nil && !root.Marked() {
				c.gray = append(c.gray, grayItem{root, rs.Isolate})
			}
		}
		// Preserve set ordering for the re-scan's charges too.
		c.mu.Unlock()
		m.run(-1, true)
		c.mu.Lock()
	}
	c.mu.Unlock()

	// Finalization: unreachable finalizable objects survive one more
	// cycle, charged to their creator, with their subgraph resurrected.
	// Each domain lists its finalizable objects apart (in allocation
	// order, like the object list), so the pass costs nothing on a heap
	// without them. Whatever stays listed was marked: the sweep below
	// frees none of it.
	var res CollectResult
	domains := *h.domains.Load()
	for _, d := range domains {
		waiting := d.finalizable[:0]
		for _, o := range d.finalizable {
			if o.Marked() {
				waiting = append(waiting, o)
				continue
			}
			o.setFlag(flagFinalized)
			res.PendingFinalize = append(res.PendingFinalize, o)
			c.mu.Lock()
			c.gray = append(c.gray, grayItem{o, o.Creator})
			c.mu.Unlock()
			m.run(-1, true)
		}
		for i := len(waiting); i < len(d.finalizable); i++ {
			d.finalizable[i] = nil
		}
		d.finalizable = waiting
	}

	// Sweep each domain's list in place and reclaim its unused TLAB slack.
	// Owners are parked, or past their last allocation and handing the
	// domain off (Handoff), which the domain's lock orders with this.
	for _, d := range domains {
		d.mu.Lock()
		h.used.Add(-d.slack)
		d.slack = 0
		live := d.objects[:0]
		for _, o := range d.objects {
			if o.clearFlag(flagMarks) {
				live = append(live, o)
				res.LiveObjects++
				res.LiveBytes += o.Size()
				continue
			}
			res.FreedObjects++
			res.FreedBytes += o.Size()
			o.sweep()
		}
		// Clear the tail so swept objects become collectible by the host
		// GC.
		clear(d.objects[len(live):])
		d.objects = live
		d.live = int64(len(live))
		d.Publish()
		d.mu.Unlock()
	}
	// Merge the allocate-black charges (objects born during the cycle,
	// invisible to markers) into the per-isolate live stats.
	for _, d := range domains {
		for iso, s := range d.bornLive {
			t := c.liveStats(iso)
			t.Objects += s.Objects
			t.Bytes += s.Bytes
			t.Connections += s.Connections
		}
		d.bornLive = nil
	}
	h.used.Add(-res.FreedBytes)
	res.Live = c.live
	h.barrier.Store(false)
	h.cycle.Store(nil)
	return res
}

// --- Marker ---------------------------------------------------------------

// grayChunk is how many shared-pool items a marker takes per grab, and
// spillAt the local-stack size beyond which it spills half back so other
// shards can steal the work.
const (
	grayChunk = 64
	spillAt   = 256
)

// marker performs mark work against one cycle for one call (MarkQuantum
// / terminal drain). Its scratch — the private trace stack and the
// per-isolate stats — is recycled through markerPool, so a mark step
// allocates nothing once the pool is warm.
type marker struct {
	h     *Heap
	c     *gcCycle
	local []grayItem
	// stats batches live-stat charges per call, merged under c.mu once at
	// the end so concurrent markers do not contend per object; at most
	// maxMarkerStats isolates, merged early when a further one shows up.
	stats []isoStats
	// holding reports that the marker is counted in c.active: it took
	// work from the cycle, in the same locked section.
	holding bool
}

// isoStats is one isolate's batched live-stat charges.
type isoStats struct {
	iso IsolateID
	LiveStats
}

const maxMarkerStats = 8

var markerPool = sync.Pool{New: func() any { return new(marker) }}

func getMarker(h *Heap, c *gcCycle) *marker {
	m := markerPool.Get().(*marker)
	m.h, m.c = h, c
	return m
}

// putMarker recycles m's scratch. It holds no object: the trace stack is
// empty, and every slot it vacated was cleared (pop, spill).
func putMarker(m *marker) {
	m.h, m.c = nil, nil
	markerPool.Put(m)
}

// run performs up to budget units of work (budget < 0 means until
// exhausted) and reports whether the cycle's mark work is exhausted. stw
// marks the stop-the-world drains: RefHolder payloads are scanned inline
// (the world is quiescent) instead of deferred. A step takes c.mu once per
// steal — taking no more than its remaining budget — and once at the end,
// where it spills its leftovers, merges its stats, leaves c.active and
// reads the verdict.
func (m *marker) run(budget int, stw bool) (exhausted bool) {
	c := m.c
	n := 0
	for budget < 0 || n < budget {
		it, ok := m.next(stw, budget-n)
		if !ok {
			break
		}
		n++
		if !it.obj.tryMark() {
			continue
		}
		m.charge(it)
		m.scan(it, stw)
	}
	// Spill leftovers (budget exhausted mid-trace) and merge stats.
	c.mu.Lock()
	c.gray = append(c.gray, m.local...)
	clear(m.local)
	m.local = m.local[:0]
	m.mergeLocked()
	if m.holding {
		m.holding = false
		c.active--
	}
	exhausted = c.exhaustedLocked()
	c.mu.Unlock()
	return exhausted
}

// mergeLocked adds the batched stats to the cycle's; c.mu held.
func (m *marker) mergeLocked() {
	for i := range m.stats {
		s := &m.stats[i]
		t := m.c.liveStats(s.iso)
		t.Objects += s.Objects
		t.Bytes += s.Bytes
		t.Connections += s.Connections
	}
	m.stats = m.stats[:0]
}

// hold counts the marker in c.active as it takes its first work; c.mu
// held.
func (m *marker) hold() {
	if !m.holding {
		m.holding = true
		m.c.active++
	}
}

// next produces the marker's next work item: local stack first, then a
// chunk stolen from the shared pool — at most max items, when max >= 0 —
// then the root cursor in strict isolate order, then buffered SATB
// records, and under stop-the-world also the deferred native payloads.
// Taking from the pool's top leaves the trace order what it is with any
// chunk size: the local stack is the pool's continuation.
func (m *marker) next(stw bool, max int) (grayItem, bool) {
	if n := len(m.local); n > 0 {
		return m.pop(n), true
	}
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.gray); n > 0 {
		take := min(grayChunk, n)
		if max >= 0 {
			take = min(take, max)
		}
		m.hold()
		m.local = append(m.local, c.gray[n-take:]...)
		for i := n - take; i < n; i++ {
			c.gray[i] = grayItem{}
		}
		c.gray = c.gray[:n-take]
		return m.pop(len(m.local)), true
	}
	for c.setIdx < len(c.rootSets) {
		rs := &c.rootSets[c.setIdx]
		if c.refIdx < len(rs.Refs) {
			root := rs.Refs[c.refIdx]
			c.refIdx++
			if root != nil {
				m.hold()
				return grayItem{root, rs.Isolate}, true
			}
			continue
		}
		c.setIdx++
		c.refIdx = 0
	}
	if n := len(c.satb); n > 0 {
		o := c.satb[n-1]
		c.satb[n-1] = nil
		c.satb = c.satb[:n-1]
		m.hold()
		// A barrier-rescued object was live at the snapshot but no
		// isolate traced a path to it this cycle: charge its creator,
		// like finalizer resurrection.
		return grayItem{o, o.Creator}, true
	}
	if stw {
		if n := len(c.deferred); n > 0 {
			it := c.deferred[n-1]
			c.deferred[n-1] = grayItem{}
			c.deferred = c.deferred[:n-1]
			m.hold()
			// Already marked and charged; re-run only the native scan.
			c.mu.Unlock()
			m.scanNative(it)
			c.mu.Lock()
			return m.nextDeferredOrRetry(stw)
		}
	}
	return grayItem{}, false
}

// nextDeferredOrRetry re-enters next after a deferred native scan pushed
// children onto the local stack. c.mu held (and kept held on return to
// next's defer).
func (m *marker) nextDeferredOrRetry(stw bool) (grayItem, bool) {
	if n := len(m.local); n > 0 {
		return m.pop(n), true
	}
	if n := len(m.c.deferred); n > 0 {
		it := m.c.deferred[n-1]
		m.c.deferred[n-1] = grayItem{}
		m.c.deferred = m.c.deferred[:n-1]
		m.c.mu.Unlock()
		m.scanNative(it)
		m.c.mu.Lock()
		return m.nextDeferredOrRetry(stw)
	}
	return grayItem{}, false
}

// charge accumulates the first-tracer live statistics for a freshly
// marked object.
func (m *marker) charge(it grayItem) {
	var s *LiveStats
	for i := range m.stats {
		if m.stats[i].iso == it.iso {
			s = &m.stats[i].LiveStats
			break
		}
	}
	if s == nil {
		if len(m.stats) == maxMarkerStats {
			m.c.mu.Lock()
			m.mergeLocked()
			m.c.mu.Unlock()
		}
		m.stats = append(m.stats, isoStats{iso: it.iso})
		s = &m.stats[len(m.stats)-1].LiveStats
	}
	o := it.obj
	o.Charged = it.iso
	s.Objects++
	s.Bytes += o.Size()
	if o.IsConnection() {
		s.Connections++
	}
}

// scan pushes the object's children. Reference words are read through
// the atomic slot load so concurrent barriered mutator stores are
// race-free; native RefHolder payloads are scanned inline under
// stop-the-world and deferred to the terminal phase otherwise (guest
// natives mutate them without barriered slots). A concurrent scan marks
// the object traced after its last slot load, so later stores into it
// take no record (StoreRef); a stop-the-world drain need not, no mutator
// runs before its sweep.
func (m *marker) scan(it grayItem, stw bool) {
	o := it.obj
	for i := range o.Elems {
		if r := loadSlotRef(&o.Elems[i]); r != nil && !r.Marked() {
			m.push(grayItem{r, it.iso})
		}
	}
	if !stw && len(o.Elems) != 0 {
		o.setFlag(flagTraced)
	}
	if _, ok := o.Native().(RefHolder); ok {
		if stw {
			m.scanNative(it)
		} else {
			m.c.mu.Lock()
			m.c.deferred = append(m.c.deferred, it)
			m.c.mu.Unlock()
		}
	}
}

// scanNative pushes the references held by a native payload. Only called
// under stop-the-world (terminal phase or exact collection).
func (m *marker) scanNative(it grayItem) {
	holder, ok := it.obj.Native().(RefHolder)
	if !ok {
		return
	}
	for _, r := range holder.Refs() {
		if r != nil && !r.Marked() {
			m.push(grayItem{r, it.iso})
		}
	}
}

// pop takes the top of the local stack, whose length is n, clearing the
// slot it vacates.
func (m *marker) pop(n int) grayItem {
	it := m.local[n-1]
	m.local[n-1] = grayItem{}
	m.local = m.local[:n-1]
	return it
}

// push adds one item to the local stack, spilling half to the shared
// pool when it grows past spillAt so other markers can steal it.
func (m *marker) push(it grayItem) {
	m.local = append(m.local, it)
	if len(m.local) >= spillAt {
		half := len(m.local) / 2
		m.c.mu.Lock()
		m.c.gray = append(m.c.gray, m.local[:half]...)
		m.c.mu.Unlock()
		copy(m.local, m.local[half:])
		clear(m.local[len(m.local)-half:])
		m.local = m.local[:len(m.local)-half]
	}
}

// RefHolder is implemented by native payloads (collections) that hold
// object references the collector must trace. Payload mutation from
// guest natives must record overwritten/removed references through the
// VM's write barrier; the collector itself only reads payloads while
// the world is stopped.
type RefHolder interface {
	Refs() []*Object
}
