package heap_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
)

func testClass(t *testing.T, fields int) *classfile.Class {
	t.Helper()
	b := classfile.NewClass("t/C")
	for i := 0; i < fields; i++ {
		b.Field("f"+string(rune('0'+i)), classfile.KindRef)
	}
	c := b.MustBuild()
	c.NumFieldSlots = fields // loader-free link
	for i, f := range c.Fields {
		f.Slot = i
	}
	c.Linked = true
	return c
}

// liveOf reads one isolate's share of a collection's survivors; an isolate
// absent from the result holds nothing live.
func liveOf(res heap.CollectResult, iso heap.IsolateID) heap.LiveStats {
	if s := res.Live[iso]; s != nil {
		return *s
	}
	return heap.LiveStats{}
}

// TestAllocationAccounting: the heap admits at the modelled size and
// records the creator; it charges no isolate (the interpreter's accounts
// do, see interp's TestHostAllocationChargesCreator).
func TestAllocationAccounting(t *testing.T) {
	h := heap.New(1 << 20)
	c := testClass(t, 2)
	obj, err := h.AllocObject(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := int64(heap.ObjectHeaderBytes + 2*heap.ValueSlotBytes)
	if obj.Size() != wantSize {
		t.Fatalf("size = %d, want %d", obj.Size(), wantSize)
	}
	if h.Used() != wantSize {
		t.Fatalf("used = %d, want %d", h.Used(), wantSize)
	}
	if h.NumObjects() != 1 {
		t.Fatalf("objects = %d, want 1", h.NumObjects())
	}
	if obj.Creator != 3 || obj.Charged != heap.NoIsolate {
		t.Fatalf("creator/charged = %d/%d", obj.Creator, obj.Charged)
	}
}

func TestObjectHeaderMatchesPaper(t *testing.T) {
	// §4.2: "the size of [a java.lang.Object] object is 28 bytes".
	h := heap.New(0)
	c := testClass(t, 0)
	obj, err := h.AllocObject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Size() != 28 {
		t.Fatalf("plain object size = %d, want 28", obj.Size())
	}
}

func TestOutOfMemory(t *testing.T) {
	h := heap.New(100)
	c := testClass(t, 0)
	if _, err := h.AllocObject(c, 0); err != nil { // 28 bytes
		t.Fatal(err)
	}
	if _, err := h.AllocArray(c, 100, 0); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if _, err := h.AllocArray(c, -1, 0); err == nil {
		t.Fatal("negative array size accepted")
	}
}

func TestCollectFreesUnreachableAndCharges(t *testing.T) {
	h := heap.New(1 << 20)
	c := testClass(t, 1)
	root, err := h.AllocObject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := h.AllocObject(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	root.Elems[0] = heap.RefVal(kept)
	lost, err := h.AllocObject(c, 1)
	if err != nil {
		t.Fatal(err)
	}

	res := h.Collect([]heap.RootSet{{Isolate: 0, Refs: []*heap.Object{root}}})
	if res.FreedObjects != 1 || res.LiveObjects != 2 {
		t.Fatalf("collect = %+v", res)
	}
	if !lost.Dead() || root.Dead() || kept.Dead() {
		t.Fatal("wrong objects swept")
	}
	if root.Charged != 0 || kept.Charged != 0 {
		t.Fatalf("charging: root=%d kept=%d", root.Charged, kept.Charged)
	}
	live := liveOf(res, 0)
	if live.Objects != 2 || live.Bytes != root.Size()+kept.Size() {
		t.Fatalf("live stats = %+v", live)
	}
}

func TestFirstIsolateChargingOrder(t *testing.T) {
	// The same object reachable from isolates 0 and 1: charged to 0
	// because its root set is traced first (paper §3.2 step 4).
	h := heap.New(1 << 20)
	c := testClass(t, 0)
	shared, err := h.AllocObject(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := h.Collect([]heap.RootSet{
		{Isolate: 0, Refs: []*heap.Object{shared}},
		{Isolate: 1, Refs: []*heap.Object{shared}},
	})
	if shared.Charged != 0 {
		t.Fatalf("charged to %d, want 0 (first tracer)", shared.Charged)
	}
	if liveOf(res, 1).Objects != 0 {
		t.Fatal("second isolate must not be charged for the shared object")
	}
}

func TestResizeNativeAdjustsUsage(t *testing.T) {
	h := heap.New(1 << 20)
	c := testClass(t, 0)
	obj, err := h.AllocNative(c, "payload", 100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Used()
	h.ResizeNative(obj, 300)
	if h.Used() != before+200 {
		t.Fatalf("used after grow = %d, want %d", h.Used(), before+200)
	}
	h.ResizeNative(obj, 0)
	if h.Used() != before-100 {
		t.Fatalf("used after shrink = %d, want %d", h.Used(), before-100)
	}
}

// TestConnectionCounting: the collector counts a live connection for the
// isolate that traces it (opened connections are the interpreter's count,
// see interp's TestRefusedConnectionNotCounted).
func TestConnectionCounting(t *testing.T) {
	h := heap.New(1 << 20)
	c := testClass(t, 0)
	conn, err := h.AllocNative(c, "conn", 64, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !conn.IsConnection() {
		t.Fatal("connection flag not set at allocation")
	}
	res := h.Collect([]heap.RootSet{{Isolate: 2, Refs: []*heap.Object{conn}}})
	if liveOf(res, 2).Connections != 1 {
		t.Fatal("connection not counted by the collector")
	}
	if res = h.Collect(nil); liveOf(res, 2).Connections != 0 {
		t.Fatal("a swept connection still counted")
	}
}

// TestQuickGCSoundness builds random object graphs with random roots and
// verifies the collector's core invariants:
//
//   - every object reachable from a root survives, everything else is
//     swept;
//   - used bytes equal the sum of live object sizes;
//   - every live object is charged to exactly the first isolate whose
//     root set reaches it.
func TestQuickGCSoundness(t *testing.T) {
	c := testClass(t, 3)
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := heap.New(16 << 20)
		n := 20 + r.Intn(60)
		objs := make([]*heap.Object, n)
		for i := range objs {
			obj, err := h.AllocObject(c, heap.IsolateID(r.Intn(3)))
			if err != nil {
				return false
			}
			objs[i] = obj
		}
		// Random edges.
		for _, o := range objs {
			for f := 0; f < 3; f++ {
				if r.Intn(2) == 0 {
					o.Elems[f] = heap.RefVal(objs[r.Intn(n)])
				}
			}
		}
		// Random root sets for isolates 0..2.
		var rootSets []heap.RootSet
		rooted := make(map[*heap.Object]bool)
		for iso := heap.IsolateID(0); iso < 3; iso++ {
			var refs []*heap.Object
			for _, o := range objs {
				if r.Intn(4) == 0 {
					refs = append(refs, o)
					rooted[o] = true
				}
			}
			rootSets = append(rootSets, heap.RootSet{Isolate: iso, Refs: refs})
		}
		// Host-side reachability oracle.
		reachable := make(map[*heap.Object]bool)
		var mark func(o *heap.Object)
		mark = func(o *heap.Object) {
			if o == nil || reachable[o] {
				return
			}
			reachable[o] = true
			for _, v := range o.Elems {
				if v.R != nil {
					mark(v.R)
				}
			}
		}
		for _, rs := range rootSets {
			for _, o := range rs.Refs {
				mark(o)
			}
		}

		res := h.Collect(rootSets)

		var liveBytes int64
		chargedCounts := make(map[heap.IsolateID]int64)
		for _, o := range objs {
			if reachable[o] {
				if o.Dead() {
					return false // reachable object swept
				}
				liveBytes += o.Size()
				if o.Charged == heap.NoIsolate {
					return false // live object uncharged
				}
				chargedCounts[o.Charged]++
			} else if !o.Dead() {
				return false // unreachable object survived
			}
		}
		if h.Used() != liveBytes || res.LiveBytes != liveBytes {
			return false
		}
		var statTotal int64
		for iso := heap.IsolateID(0); iso < 3; iso++ {
			statTotal += liveOf(res, iso).Objects
		}
		return statTotal == int64(len(reachable))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickChargeIsFirstTracer verifies the "first isolate that
// references it" rule on random graphs: charging must match a host-side
// simulation that traces the root sets in order.
func TestQuickChargeIsFirstTracer(t *testing.T) {
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
		for iso := heap.IsolateID(0); iso < 4; iso++ {
			var refs []*heap.Object
			for _, o := range objs {
				if r.Intn(5) == 0 {
					refs = append(refs, o)
				}
			}
			rootSets = append(rootSets, heap.RootSet{Isolate: iso, Refs: refs})
		}
		// Oracle: trace in order, first marker charges.
		want := make(map[*heap.Object]heap.IsolateID)
		var trace func(o *heap.Object, iso heap.IsolateID)
		trace = func(o *heap.Object, iso heap.IsolateID) {
			if o == nil {
				return
			}
			if _, seen := want[o]; seen {
				return
			}
			want[o] = iso
			for _, v := range o.Elems {
				if v.R != nil {
					trace(v.R, iso)
				}
			}
		}
		for _, rs := range rootSets {
			for _, o := range rs.Refs {
				trace(o, rs.Isolate)
			}
		}
		h.Collect(rootSets)
		for o, iso := range want {
			if o.Charged != iso {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
