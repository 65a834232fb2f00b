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

	h.PinShared(obj)
	h.PinShared(obj) // refcounted: two pins, two unpins
	if h.SharedPins() != 1 {
		t.Fatalf("SharedPins = %d, want 1", h.SharedPins())
	}

	res := h.Collect(nil)
	if obj.Dead() || child.Dead() {
		t.Fatalf("pinned graph swept: obj=%v child=%v", obj.Dead(), child.Dead())
	}
	if res.LiveObjects != 2 {
		t.Fatalf("live objects = %d, want 2", res.LiveObjects)
	}
	// Pins are charged to the creator isolate.
	if got := res.Live[2]; got == nil || got.Objects != 2 {
		t.Fatalf("creator live objects = %d, want 2", got)
	}

	h.UnpinShared(obj)
	h.Collect(nil)
	if obj.Dead() {
		t.Fatalf("graph swept while one pin remains")
	}

	h.UnpinShared(obj)
	if h.SharedPins() != 0 {
		t.Fatalf("SharedPins = %d after balanced unpins", h.SharedPins())
	}
	h.Collect(nil)
	if !obj.Dead() || !child.Dead() {
		t.Fatalf("unpinned garbage not swept: obj=%v child=%v", obj.Dead(), child.Dead())
	}
}

func TestSharedPinRootsIncrementalCycle(t *testing.T) {
	h := heap.New(1 << 20)
	ac := testArrayClass(t)
	obj, err := h.AllocArray(ac, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinShared(obj)
	defer h.UnpinShared(obj)

	if !h.BeginCycle(nil) {
		t.Fatal("BeginCycle failed")
	}
	for !h.MarkQuantum(64) {
	}
	if _, ok := h.FinishCycle(nil); !ok {
		t.Fatal("FinishCycle failed")
	}
	if obj.Dead() {
		t.Fatalf("pinned object swept by incremental cycle with no root sets")
	}
}
