package heap

import (
	"testing"

	"ijvm/internal/classfile"
)

// White-box tests of the incremental collector: cycle phasing, SATB
// soundness, allocate-black admission, and the exactness contract of
// Collect (abandon-then-full-pass). The differential and concurrency
// proofs live in internal/interp (randomized oracle, -race stress); this
// file pins the heap-level mechanics in isolation.

func incClass(fields int) *classfile.Class {
	b := classfile.NewClass("t/Inc")
	for i := 0; i < fields; i++ {
		b.Field("f"+string(rune('0'+i)), classfile.KindRef)
	}
	c := b.MustBuild()
	c.NumFieldSlots = fields
	for i, f := range c.Fields {
		f.Slot = i
	}
	c.Linked = true
	return c
}

// mutStore is a guest store into slot i of holder as the engines make
// it: a plain assignment while no barrier is armed, else the production
// StoreRef with the record it returns taken (interp's VM.StoreRef buffers
// it; RecordWrite is the same record unbuffered).
func mutStore(h *Heap, holder *Object, i int, v Value) {
	slot := &holder.Elems[i]
	if !h.BarrierActive() {
		*slot = v
		return
	}
	if old := StoreRef(holder, slot, v); old != nil {
		h.RecordWrite(old)
	}
}

// TestIncrementalSATBKeepsRelinkedObject is the classic SATB scenario:
// an object is re-linked into an already-scanned (black) holder and its
// original edge — in a holder not scanned yet — deleted mid-cycle. The
// store into the black holder is plain (it is traced); the deletion
// record must keep the object alive through the terminal phase; the
// next exact collection reclaims it once it is truly dead.
func TestIncrementalSATBKeepsRelinkedObject(t *testing.T) {
	h := New(1 << 20)
	c := incClass(2)
	rootObj, _ := h.AllocObject(c, 0)
	mid, _ := h.AllocObject(c, 0)
	holder, _ := h.AllocObject(c, 0)
	x, _ := h.AllocObject(c, 0)
	rootObj.Elems[0] = RefVal(mid)
	rootObj.Elems[1] = RefVal(holder)
	mid.Elems[0] = RefVal(x) // x initially reachable only via mid.f0

	roots := []RootSet{{Isolate: 0, Refs: []*Object{rootObj}}}
	if !h.BeginCycle(roots) {
		t.Fatal("BeginCycle refused")
	}
	// Two mark units: rootObj is claimed and scanned (pushing mid then
	// holder), then holder (LIFO) turns black. mid is gray, x white.
	h.MarkQuantum(2)
	if !rootObj.Traced() || !holder.Traced() || mid.Marked() || x.Marked() {
		t.Fatalf("unexpected mark state: root=%v holder=%v mid=%v x=%v",
			rootObj.Traced(), holder.Traced(), mid.Marked(), x.Marked())
	}
	// Mutator: move x into the black holder and erase the original
	// edge — the erase must be recorded, or x is lost (the black holder
	// is never re-scanned, and mid's scan no longer finds x).
	mutStore(h, holder, 0, RefVal(x))
	if n := h.BarrierRecords(); n != 0 {
		t.Fatalf("a store into a traced holder took %d records, want 0", n)
	}
	mutStore(h, mid, 0, Null())
	if n := h.BarrierRecords(); n != 1 {
		t.Fatalf("deletion barrier took %d records of the erased edge, want 1", n)
	}
	for !h.MarkQuantum(8) {
	}
	res, ok := h.FinishCycle(roots)
	if !ok {
		t.Fatal("FinishCycle refused")
	}
	if x.Dead() {
		t.Fatal("SATB-protected object was swept while reachable through a black holder")
	}
	if res.FreedObjects != 0 {
		t.Fatalf("freed %d objects, want 0 (everything is live)", res.FreedObjects)
	}

	// Drop x for real; the next exact collection reclaims it.
	mutStore(h, holder, 0, Null())
	res = h.Collect(roots)
	if !x.Dead() || res.FreedObjects != 1 {
		t.Fatalf("exact collection: freed=%d xDead=%v", res.FreedObjects, x.Dead())
	}
	if h.Used() != res.LiveBytes {
		t.Fatalf("used %d != live %d after exact collection", h.Used(), res.LiveBytes)
	}
}

// TestIncrementalFloatsDeadButExactCollectReclaims pins the documented
// SATB trade: an object that dies during the cycle floats through
// FinishCycle, and Collect (exact) reclaims it — while Collect on an
// OPEN cycle abandons the stale snapshot and is exact immediately.
func TestIncrementalFloatsDeadButExactCollectReclaims(t *testing.T) {
	h := New(1 << 20)
	c := incClass(1)
	rootObj, _ := h.AllocObject(c, 0)
	doomed, _ := h.AllocObject(c, 0)
	rootObj.Elems[0] = RefVal(doomed)
	roots := []RootSet{{Isolate: 0, Refs: []*Object{rootObj}}}

	// Cycle 1: doomed dies after the snapshot -> floats.
	h.BeginCycle(roots)
	mutStore(h, rootObj, 0, Null()) // recorded, so it floats
	for !h.MarkQuantum(8) {
	}
	if _, ok := h.FinishCycle(roots); !ok {
		t.Fatal("FinishCycle refused")
	}
	if doomed.Dead() {
		t.Fatal("snapshot-live object swept by its own cycle")
	}

	// Cycle 2 (abandon path): open a cycle, then demand an exact
	// collection mid-mark — the floating object must go now.
	h.BeginCycle(roots)
	h.MarkQuantum(1)
	res := h.Collect(roots)
	if !doomed.Dead() {
		t.Fatal("exact collection failed to reclaim floating garbage")
	}
	if h.CycleOpen() || h.BarrierActive() {
		t.Fatal("exact collection left a cycle open")
	}
	if h.Used() != res.LiveBytes {
		t.Fatalf("used %d != live %d", h.Used(), res.LiveBytes)
	}
	if rootObj.Marked() || doomed.Marked() {
		t.Fatal("mark bits leaked past the collection")
	}
}

// TestAllocateBlackSurvivesCycle: objects born during an open cycle are
// marked at birth and never swept by that cycle, even when dropped
// immediately.
func TestAllocateBlackSurvivesCycle(t *testing.T) {
	h := New(1 << 20)
	c := incClass(1)
	rootObj, _ := h.AllocObject(c, 0)
	roots := []RootSet{{Isolate: 0, Refs: []*Object{rootObj}}}
	h.BeginCycle(roots)
	born, _ := h.AllocObject(c, 0) // dropped: no reference anywhere
	if !born.Marked() {
		t.Fatal("allocation during an open cycle must be allocate-black")
	}
	for !h.MarkQuantum(8) {
	}
	h.FinishCycle(roots)
	if born.Dead() {
		t.Fatal("allocate-black object swept by its birth cycle")
	}
	// The next exact collection reclaims it.
	h.Collect(roots)
	if !born.Dead() {
		t.Fatal("dead born object survived an exact collection")
	}
}

// TestTracedBitLifecycle pins where the traced bit comes from and where
// it goes: a concurrent mark step sets it on the objects it scanned that
// have slots (and on no other), allocate-black admission sets it at
// birth, an exact collection never sets it, and it is clear after
// FinishCycle and after an abandon. A cleared bit brings the barrier
// back: the next cycle records a store into the same holder again.
func TestTracedBitLifecycle(t *testing.T) {
	h := New(1 << 20)
	c := incClass(1)
	root, _ := h.AllocObject(c, 0)
	child, _ := h.AllocObject(c, 0)
	leaf, _ := h.AllocObject(incClass(0), 0)
	root.Elems[0] = RefVal(child)
	child.Elems[0] = RefVal(leaf)
	all := []*Object{root, child, leaf}
	roots := []RootSet{{Isolate: 0, Refs: []*Object{root}}}
	clean := func(when string) {
		t.Helper()
		for i, o := range all {
			if o.Marked() || o.Traced() {
				t.Fatalf("%s: object %d marked=%v traced=%v", when, i, o.Marked(), o.Traced())
			}
		}
	}

	h.Collect(roots)
	clean("after an exact collection")

	h.BeginCycle(roots)
	if root.Traced() {
		t.Fatal("opening a cycle traced a root")
	}
	h.MarkQuantum(1)
	if !root.Traced() || child.Traced() {
		t.Fatalf("one mark unit: root traced=%v child traced=%v, want the scanned root only", root.Traced(), child.Traced())
	}
	born, _ := h.AllocObject(c, 0)
	all = append(all, born)
	if !born.Marked() || !born.Traced() {
		t.Fatalf("allocate-black admission: marked=%v traced=%v", born.Marked(), born.Traced())
	}
	for !h.MarkQuantum(8) {
	}
	if !child.Traced() || !leaf.Marked() || leaf.Traced() {
		t.Fatalf("exhausted mark: child traced=%v, leaf marked=%v traced=%v (a slotless object needs no bit)",
			child.Traced(), leaf.Marked(), leaf.Traced())
	}
	if _, ok := h.FinishCycle(roots); !ok {
		t.Fatal("FinishCycle refused")
	}
	clean("after FinishCycle")

	// The same holder records again in the next cycle before its re-scan.
	h.BeginCycle(roots)
	mutStore(h, root, 0, RefVal(born))
	if n := h.BarrierRecords(); n != 1 {
		t.Fatalf("a store into the unscanned root took %d records, want 1", n)
	}
	h.MarkQuantum(2)
	if !root.Traced() || !born.Traced() {
		t.Fatalf("mark step: root traced=%v born traced=%v", root.Traced(), born.Traced())
	}
	h.Collect(roots) // abandons the open cycle
	clean("after an abandon")
	if h.CycleOpen() {
		t.Fatal("Collect left the cycle open")
	}
}

// --- FuzzMarkInvariant ----------------------------------------------------

// fuzzHeap drives random store/allocate/collect interleavings against
// the tri-color invariant: at every point during marking, a white
// object referenced by a black one must be reachable from the pending
// mark work (gray pool, root cursor remainder, SATB records) — i.e. no
// black→white edge survives without a barrier record or queued path.
// At terminal points it additionally checks SATB's liveness guarantee
// (snapshot-reachable ∪ born-during-cycle objects are never swept) and
// sweep soundness (currently-reachable objects are never dead).
type fuzzHeap struct {
	t     *testing.T
	h     *Heap
	class *classfile.Class
	objs  []*Object
	roots []*Object // mutable root slots (snapshot-copied at BeginCycle)
	// cycle bookkeeping for the oracle checks
	snapLive map[*Object]bool
	born     map[*Object]bool
}

const fuzzRootSlots = 4

func (f *fuzzHeap) alive(o *Object) bool { return !o.Dead() }

// reach computes plain reachability from the given seeds over current
// edges (single-threaded: plain reads are fine).
func (f *fuzzHeap) reach(seeds []*Object) map[*Object]bool {
	seen := make(map[*Object]bool)
	stack := append([]*Object(nil), seeds...)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o == nil || seen[o] {
			continue
		}
		seen[o] = true
		for i := range o.Elems {
			if r := o.Elems[i].R; r != nil {
				stack = append(stack, r)
			}
		}
	}
	return seen
}

func (f *fuzzHeap) rootSet() []RootSet {
	refs := make([]*Object, 0, fuzzRootSlots)
	for _, r := range f.roots {
		if r != nil {
			refs = append(refs, r)
		}
	}
	return []RootSet{{Isolate: 0, Refs: refs}}
}

// pendingSeeds collects every queued mark source of the open cycle.
func (f *fuzzHeap) pendingSeeds() []*Object {
	c := f.h.cycle.Load()
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var seeds []*Object
	for _, it := range c.gray {
		seeds = append(seeds, it.obj)
	}
	seeds = append(seeds, c.satb...)
	for _, it := range c.deferred {
		seeds = append(seeds, it.obj)
	}
	for si := c.setIdx; si < len(c.rootSets); si++ {
		rs := &c.rootSets[si]
		start := 0
		if si == c.setIdx {
			start = c.refIdx
		}
		for ri := start; ri < len(rs.Refs); ri++ {
			seeds = append(seeds, rs.Refs[ri])
		}
	}
	return seeds
}

// checkTriColor verifies the weak tri-color invariant mid-mark.
func (f *fuzzHeap) checkTriColor() {
	if !f.h.CycleOpen() {
		return
	}
	coveredByPending := f.reach(f.pendingSeeds())
	for _, o := range f.objs {
		if !f.alive(o) || !o.Marked() || f.born[o] {
			continue
		}
		for i := range o.Elems {
			c := o.Elems[i].R
			if c == nil || c.Marked() {
				continue
			}
			if !coveredByPending[c] {
				f.t.Fatalf("tri-color violation: black %p -> white %p with no barrier record or queued path", o, c)
			}
		}
	}
}

func FuzzMarkInvariant(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 1, 5, 6})
	f.Add([]byte{0, 0, 0, 3, 16, 4, 1, 2, 33, 5, 1, 9, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 3, 0, 3, 17, 4, 5, 1, 1, 2, 1, 18, 5, 2, 40, 6, 0, 3, 2, 7, 7})
	// The seeds below root o0, o1 and o2 (op 3), link o0 -> o1 -> o2
	// or o0 -> {o1, o2}, and unroot o1 and o2 before the cycle opens;
	// one mark unit then scans (traces) o0.
	//
	// Stores into a scanned holder: o0.f0 is cleared and o0.f1 = o2
	// stored plainly. In the next cycle, before o0's re-scan, o2 moves
	// into the allocate-black o3 and both of o0's edges to it are
	// cleared: only their records keep o2 alive.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 3, 5, 3, 10, 1, 9, 1, 15, 3, 1, 3, 2, 4, 0, 5, 0, 2, 0, 5, 1, 1, 39, 5, 4, 6, 0,
		4, 0, 0, 0, 3, 17, 1, 19, 2, 4, 2, 8, 5, 4, 6, 0})
	// Yuasa's case: o2 is held only by the gray o1; it moves into the
	// scanned o0 with a plain store, and only the record of o1.f0's
	// deletion keeps it covered.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 3, 5, 3, 10, 1, 9, 1, 19, 3, 1, 3, 2, 4, 0, 5, 0, 1, 39, 2, 1, 5, 1, 5, 4, 6, 0})
	// An allocate-black holder: o3 is born traced mid-cycle, and
	// stores into it are plain.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 4, 0, 0, 0, 5, 0, 1, 3, 2, 3, 5, 4, 6, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fh := &fuzzHeap{
			t:     t,
			h:     New(1 << 20),
			class: incClass(3),
			roots: make([]*Object, fuzzRootSlots),
			born:  map[*Object]bool{},
		}
		pick := func(i int, b byte) *Object {
			if len(fh.objs) == 0 {
				return nil
			}
			return fh.objs[int(b)%len(fh.objs)]
		}
		// legal reports whether a mutator could hold o right now: the
		// guest only traffics in references loaded from roots or the
		// reachable heap, plus objects it just allocated. (References
		// injected from outside that set — host handles — enter through
		// op 3, which models SpawnThread's barrier record.)
		legal := func(o *Object) bool {
			if o == nil || o.Dead() {
				return false
			}
			if fh.born[o] {
				return true
			}
			return fh.reach(fh.rootSet()[0].Refs)[o]
		}
		for i := 0; i < len(data); i++ {
			op := data[i] % 8
			arg := byte(0)
			if i+1 < len(data) {
				arg = data[i+1]
				i++
			}
			switch op {
			case 0: // allocate
				if len(fh.objs) >= 128 {
					continue
				}
				o, err := fh.h.AllocObject(fh.class, 0)
				if err != nil {
					continue
				}
				fh.objs = append(fh.objs, o)
				if fh.h.CycleOpen() {
					fh.born[o] = true
				}
			case 1: // barriered ref store a.f[j] = b
				a, b := pick(0, arg), pick(1, arg/7)
				if !legal(a) || !legal(b) {
					continue
				}
				mutStore(fh.h, a, int(arg/3)%len(a.Elems), RefVal(b))
			case 2: // barriered null store
				a := pick(0, arg)
				if !legal(a) {
					continue
				}
				mutStore(fh.h, a, int(arg/3)%len(a.Elems), Null())
			case 3: // root injection: a host-held reference enters the
				// mutator world (the SpawnThread-argument path). Mid-
				// cycle injections are recorded, exactly as SpawnThread
				// does, because the object may be outside the snapshot.
				o := pick(0, arg/5)
				if o != nil && o.Dead() {
					// A real VM never roots a swept object; treat the
					// pick as a null store.
					o = nil
				}
				if o != nil && fh.h.BarrierActive() {
					fh.h.RecordWrite(o)
				}
				fh.roots[int(arg)%fuzzRootSlots] = o
			case 4: // begin cycle
				if fh.h.CycleOpen() {
					continue
				}
				fh.born = map[*Object]bool{}
				rs := fh.rootSet()
				fh.snapLive = fh.reach(rs[0].Refs)
				fh.h.BeginCycle(rs)
			case 5: // bounded mark quantum + invariant check
				fh.h.MarkQuantum(1 + int(arg)%5)
				fh.checkTriColor()
			case 6: // terminal phase + SATB liveness check
				if !fh.h.CycleOpen() {
					continue
				}
				fh.h.FinishCycle(fh.rootSet())
				for o := range fh.snapLive {
					if o.Dead() {
						t.Fatal("snapshot-reachable object swept by its cycle")
					}
				}
				for o := range fh.born {
					if o.Dead() {
						t.Fatal("allocate-black object swept by its birth cycle")
					}
				}
				fh.afterSweepChecks()
				// A dropped born object is no longer a legal mutator
				// value once its cycle ended.
				fh.born = map[*Object]bool{}
			case 7: // exact collection (abandons any open cycle)
				res := fh.h.Collect(fh.rootSet())
				live := fh.reach(fh.rootSet()[0].Refs)
				var liveBytes int64
				for o := range live {
					liveBytes += o.Size()
				}
				if res.LiveBytes != liveBytes || fh.h.Used() != liveBytes {
					t.Fatalf("exact collection not exact: res=%d used=%d want=%d",
						res.LiveBytes, fh.h.Used(), liveBytes)
				}
				fh.afterSweepChecks()
				fh.born = map[*Object]bool{}
			}
		}
	})
}

// afterSweepChecks: sweep soundness plus accounting consistency, valid
// after any terminal phase.
func (f *fuzzHeap) afterSweepChecks() {
	reachable := f.reach(f.rootSet()[0].Refs)
	var unsweptBytes int64
	for _, o := range f.objs {
		if reachable[o] && o.Dead() {
			f.t.Fatal("reachable object is dead after sweep")
		}
		if !o.Dead() {
			unsweptBytes += o.Size()
		}
	}
	if f.h.Used() != unsweptBytes {
		f.t.Fatalf("used %d != unswept bytes %d after sweep", f.h.Used(), unsweptBytes)
	}
	if f.h.CycleOpen() || f.h.BarrierActive() {
		f.t.Fatal("cycle state leaked past a terminal phase")
	}
	// Mark and traced bits must be clean between cycles.
	for _, o := range f.objs {
		if !o.Dead() && (o.Marked() || o.Traced()) {
			f.t.Fatal("mark or traced bit leaked past a sweep")
		}
	}
}

// TestMarkStepAllocatesNothing pins the marker's recycled scratch: once
// warm, a mark step — one unit or several, on a 1000-object list — makes
// no host allocation (not checked under the race detector, whose sync.Pool
// drops items on purpose), and the cycle's live stats come out exact. A second
// heap roots lists in 20 isolates (more than a marker batches at once)
// and one step traces them all: the first-tracer live stats must equal an
// exact collection's.
func TestMarkStepAllocatesNothing(t *testing.T) {
	const n = 1000
	c := incClass(1)
	h := New(1 << 22)
	var head *Object
	for i := 0; i < n; i++ {
		o, err := h.AllocObject(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if head != nil {
			o.Elems[0] = RefVal(head)
		}
		head = o
	}
	if !h.BeginCycle([]RootSet{{Isolate: 0, Refs: []*Object{head}}}) {
		t.Fatal("BeginCycle refused")
	}
	step := func(budget int) {
		if h.MarkQuantum(budget) {
			t.Fatal("the cycle was exhausted with most of the list untraced")
		}
	}
	step(1)
	step(1)
	one := testing.AllocsPerRun(200, func() { step(1) })
	eight := testing.AllocsPerRun(50, func() { step(8) })
	if !raceEnabled && (one != 0 || eight != 0) {
		t.Fatalf("a one-unit mark step allocates %v times, an eight-unit one %v", one, eight)
	}
	for !h.MarkQuantum(1) {
	}
	res, ok := h.FinishCycle(nil)
	if !ok || res.Live[0] == nil || res.Live[0].Objects != n {
		t.Fatalf("cycle finished %v with live %+v, want %d objects", ok, res.Live[0], n)
	}

	build := func() (*Heap, []RootSet) {
		h := New(1 << 22)
		var sets []RootSet
		for iso := IsolateID(1); iso <= 20; iso++ {
			var head *Object
			for i := 0; i < int(iso); i++ {
				o, err := h.AllocObject(c, iso)
				if err != nil {
					t.Fatal(err)
				}
				if head != nil {
					o.Elems[0] = RefVal(head)
				}
				head = o
			}
			sets = append(sets, RootSet{Isolate: iso, Refs: []*Object{head}})
		}
		return h, sets
	}
	hi, sets := build()
	if !hi.BeginCycle(sets) || !hi.MarkQuantum(1000) {
		t.Fatal("one step did not exhaust the cycle")
	}
	inc, _ := hi.FinishCycle(nil)
	he, sets := build()
	exact := he.Collect(sets)
	for iso := IsolateID(1); iso <= 20; iso++ {
		if inc.Live[iso] == nil || *inc.Live[iso] != *exact.Live[iso] {
			t.Fatalf("isolate %d: incremental live %+v, exact %+v", iso, inc.Live[iso], exact.Live[iso])
		}
	}
}
