package heap

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestSweptHeaderReleasesReferences: the sweep empties every header it
// frees — slot vector and cold record gone, dead set — while a live
// neighbour on the same slab keeps both, so a swept header that its slab
// keeps allocated references nothing.
func TestSweptHeaderReleasesReferences(t *testing.T) {
	h := New(1 << 20)
	class := incClass(2)
	live, err := h.AllocObject(class, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := h.AllocObject(class, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead.Elems[0] = RefVal(live)
	dead.AssignIdentityHash(7)
	h.ResizeNative(dead, 40)
	str, err := h.AllocString(incClass(0), "gone", 0)
	if err != nil {
		t.Fatal(err)
	}
	live.AssignIdentityHash(9)
	if uintptr(unsafe.Pointer(dead))-uintptr(unsafe.Pointer(live)) != unsafe.Sizeof(Object{}) {
		t.Fatal("two consecutive plain allocations are not slab neighbours")
	}

	res := h.Collect([]RootSet{{Isolate: 0, Refs: []*Object{live}}})
	if res.FreedObjects != 2 || res.FreedBytes != dead.Size()+40+str.Size()+4 {
		t.Fatalf("collect freed %d objects / %d bytes", res.FreedObjects, res.FreedBytes)
	}
	for name, o := range map[string]*Object{"object": dead, "string": str} {
		if !o.Dead() || o.Elems != nil || o.cold.Load() != nil {
			t.Errorf("swept %s: dead %v, %d slots, cold record %p", name, o.Dead(), len(o.Elems), o.cold.Load())
		}
	}
	if live.Dead() || len(live.Elems) != 2 || live.IdentityHash() != 9 {
		t.Errorf("live neighbour: dead %v, %d slots, hash %d", live.Dead(), len(live.Elems), live.IdentityHash())
	}
	if h.Used() != res.LiveBytes || h.NumObjects() != 1 {
		t.Errorf("used %d / %d objects after the sweep, live %d bytes", h.Used(), h.NumObjects(), res.LiveBytes)
	}
}

// TestSlabRetentionBounded: with one survivor in every eight objects, each
// survivor keeps its whole slab allocated, and nothing more: host heap
// growth stays within 10 % of eight headers per survivor, plus the
// survivors' slot vectors, plus the domain's object list. A sweep that
// left the dead headers' slot vectors attached would keep eight vectors
// per survivor instead of one.
func TestSlabRetentionBounded(t *testing.T) {
	const objects, every, slots = 1 << 16, slabHeaders, 2
	h := New(1 << 30)
	class := incClass(slots)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	roots := make([]*Object, 0, objects/every)
	for i := 0; i < objects; i++ {
		o, err := h.AllocObject(class, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%every == 0 {
			roots = append(roots, o)
		}
	}
	res := h.Collect([]RootSet{{Isolate: 0, Refs: roots}})
	if res.LiveObjects != int64(len(roots)) {
		t.Fatalf("%d objects survived, want %d", res.LiveObjects, len(roots))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(roots)

	survivors := int64(len(roots))
	header := int64(unsafe.Sizeof(Object{}))
	slotVector := int64(unsafe.Sizeof(Value{})) * slots
	list := int64(cap(h.host.objects)+cap(roots)) * int64(unsafe.Sizeof(uintptr(0)))
	want := survivors*(slabHeaders*header+slotVector) + list
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d survivors: host heap grew %d bytes (%.0f per survivor), bound %d", survivors, grown, float64(grown)/float64(survivors), want)
	if grown > want+want/10 {
		t.Fatalf("host heap grew %d bytes for %d survivors, want at most %d + 10 %%", grown, survivors, want)
	}
}
