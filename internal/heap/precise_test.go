package heap_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ijvm/internal/heap"
)

func TestPreciseAccountingChargesSharersTwice(t *testing.T) {
	h := heap.New(1 << 20)
	c := testClass(t, 1)
	private0, err := h.AllocObject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := h.AllocObject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	private1, err := h.AllocObject(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	private0.Elems[0] = heap.RefVal(shared)
	private1.Elems[0] = heap.RefVal(shared)

	stats := h.PreciseAccounting([]heap.RootSet{
		{Isolate: 0, Refs: []*heap.Object{private0}},
		{Isolate: 1, Refs: []*heap.Object{private1}},
	})
	if stats[0].Objects != 2 || stats[1].Objects != 2 {
		t.Fatalf("objects: %+v / %+v", stats[0], stats[1])
	}
	if stats[0].SharedObjects != 1 || stats[1].SharedObjects != 1 {
		t.Fatalf("shared: %+v / %+v", stats[0], stats[1])
	}
	// Contrast with the adopted first-tracer design: the same setup
	// charges the shared object once, to isolate 0.
	res := h.Collect([]heap.RootSet{
		{Isolate: 0, Refs: []*heap.Object{private0}},
		{Isolate: 1, Refs: []*heap.Object{private1}},
	})
	if liveOf(res, 0).Objects != 2 || liveOf(res, 1).Objects != 1 {
		t.Fatalf("first-tracer: iso0=%+v iso1=%+v", liveOf(res, 0), liveOf(res, 1))
	}
}

// TestQuickPreciseSupersetOfFirstTracer: for every isolate, the precise
// per-isolate bytes are >= the first-tracer charged bytes (the adopted
// design undercounts sharers, never overcounts).
func TestQuickPreciseSupersetOfFirstTracer(t *testing.T) {
	c := testClass(t, 2)
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := heap.New(16 << 20)
		n := 10 + r.Intn(40)
		objs := make([]*heap.Object, n)
		for i := range objs {
			obj, err := h.AllocObject(c, 0)
			if err != nil {
				return false
			}
			objs[i] = obj
		}
		for _, o := range objs {
			for f := 0; f < 2; f++ {
				if r.Intn(2) == 0 {
					o.Elems[f] = heap.RefVal(objs[r.Intn(n)])
				}
			}
		}
		var rootSets []heap.RootSet
		for iso := heap.IsolateID(0); iso < 3; iso++ {
			var refs []*heap.Object
			for _, o := range objs {
				if r.Intn(5) == 0 {
					refs = append(refs, o)
				}
			}
			rootSets = append(rootSets, heap.RootSet{Isolate: iso, Refs: refs})
		}
		precise := h.PreciseAccounting(rootSets)
		res := h.Collect(rootSets)
		var preciseTotal, firstTotal int64
		for iso := heap.IsolateID(0); iso < 3; iso++ {
			first := liveOf(res, iso)
			p := precise[iso]
			var pBytes int64
			if p != nil {
				pBytes = p.Bytes
			}
			if pBytes < first.Bytes {
				return false // precise must dominate per isolate
			}
			preciseTotal += pBytes
			firstTotal += first.Bytes
		}
		// First-tracer totals equal live bytes exactly; precise totals
		// can only exceed them (shared objects double-counted).
		return preciseTotal >= firstTotal
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
