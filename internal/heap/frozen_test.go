package heap_test

import (
	"testing"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
)

func testArrayClass(t *testing.T) *classfile.Class {
	t.Helper()
	c := classfile.NewClass("t/Arr").MustBuild()
	c.Linked = true
	return c
}

func TestFreezeValidatesGraph(t *testing.T) {
	h := heap.New(1 << 20)
	ac := testArrayClass(t)
	sc := testClass(t, 1)

	inner, err := h.AllocArray(ac, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	str, err := h.AllocString(sc, "payload", 1)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := h.AllocArray(ac, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	outer.Elems[0] = heap.IntVal(7)
	outer.Elems[1] = heap.RefVal(inner)
	outer.Elems[2] = heap.RefVal(str)
	inner.Elems[0] = heap.RefVal(outer) // cycle is fine

	if err := heap.Freeze(outer); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if !outer.Frozen() || !inner.Frozen() {
		t.Fatalf("frozen bits not set: outer=%v inner=%v", outer.Frozen(), inner.Frozen())
	}
	if str.Frozen() {
		t.Fatalf("string payload should not carry the frozen bit")
	}

	// A graph referencing a mutable object must fail with no bits set.
	mutable, err := h.AllocObject(testClass(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := h.AllocArray(ac, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad.Elems[0] = heap.RefVal(mutable)
	if err := heap.Freeze(bad); err == nil {
		t.Fatalf("Freeze of mutable graph succeeded")
	}
	if bad.Frozen() {
		t.Fatalf("failed freeze left the frozen bit set")
	}

	// Non-arrays cannot be frozen at all.
	if err := heap.Freeze(mutable); err == nil {
		t.Fatalf("Freeze of a non-array succeeded")
	}
}

// Shared roots (the VM's creator-charged HostRoots batches) reach the
// heap as leading root sets attributed to each object's creator, one set
// per batch. The two tests below check the heap's half of that contract:
// such a set keeps its graph alive and charged to the creator even when a
// lower-numbered holder's set reaches it too, in an exact collection and
// in an incremental cycle alike, and the graph is swept once no set roots
// it.

func TestSharedPinSurvivesCollection(t *testing.T) {
	h := heap.New(1 << 20)
	ac := testArrayClass(t)
	obj, err := h.AllocArray(ac, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	child, err := h.AllocArray(ac, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	obj.Elems[0] = heap.RefVal(child)

	shared := heap.RootSet{Isolate: obj.Creator, Refs: []*heap.Object{obj}}
	holder := heap.RootSet{Isolate: 1, Refs: []*heap.Object{obj}}

	// Two shared sets (two batches) ahead of the holder's.
	res := h.Collect([]heap.RootSet{shared, shared, holder})
	if obj.Dead() || child.Dead() {
		t.Fatalf("shared graph swept: obj=%v child=%v", obj.Dead(), child.Dead())
	}
	if res.LiveObjects != 2 {
		t.Fatalf("live objects = %d, want 2", res.LiveObjects)
	}
	if got := res.Live[2]; got == nil || got.Objects != 2 {
		t.Fatalf("creator live stats = %+v, want 2 objects", got)
	}
	if got := res.Live[1]; got != nil && got.Objects != 0 {
		t.Fatalf("holder charged %d objects, want 0", got.Objects)
	}
	if obj.Charged != 2 || child.Charged != 2 {
		t.Fatalf("charged to %d/%d, want creator 2", obj.Charged, child.Charged)
	}

	// One shared set left, the holder gone.
	h.Collect([]heap.RootSet{shared})
	if obj.Dead() || obj.Charged != 2 {
		t.Fatalf("with one shared set left: dead=%v charged to %d, want live and charged to 2", obj.Dead(), obj.Charged)
	}

	h.Collect(nil)
	if !obj.Dead() || !child.Dead() {
		t.Fatalf("unrooted garbage not swept: obj=%v child=%v", obj.Dead(), child.Dead())
	}
}

func TestSharedPinRootsIncrementalCycle(t *testing.T) {
	h := heap.New(1 << 20)
	ac := testArrayClass(t)
	obj, err := h.AllocArray(ac, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sets := []heap.RootSet{
		{Isolate: obj.Creator, Refs: []*heap.Object{obj}},
		{Isolate: 1, Refs: []*heap.Object{obj}},
	}
	cycle := func(roots []heap.RootSet) {
		t.Helper()
		if !h.BeginCycle(roots) {
			t.Fatal("BeginCycle failed")
		}
		for !h.MarkQuantum(64) {
		}
		if _, ok := h.FinishCycle(roots); !ok {
			t.Fatal("FinishCycle failed")
		}
	}

	cycle(sets)
	if obj.Dead() {
		t.Fatalf("shared root swept by incremental cycle")
	}
	if obj.Charged != 2 {
		t.Fatalf("incremental cycle charged shared root to %d, want its creator 2", obj.Charged)
	}

	cycle(nil)
	if !obj.Dead() {
		t.Fatalf("unrooted object not swept by incremental cycle")
	}
}
