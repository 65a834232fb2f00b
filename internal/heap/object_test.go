package heap

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestObjectLayout pins the hot header: one 64-byte cache line (Go size
// class 64), the three pointer words first so the host collector's scan
// of a header stops after 24 bytes, and modelled sizes untouched by the
// host layout — 28 bytes for a plain object, 8 more per slot.
func TestObjectLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Object{}); sz > 64 {
		t.Fatalf("heap.Object is %d bytes, want <= 64", sz)
	}
	typ := reflect.TypeOf(Object{})
	ptrEnd := unsafe.Offsetof(Object{}.Elems) + unsafe.Sizeof(uintptr(0))
	if ptrEnd != 24 {
		t.Errorf("the last pointer word ends at byte %d, want 24", ptrEnd)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Name {
		case "Class", "cold", "Elems":
			if f.Offset >= ptrEnd {
				t.Errorf("pointer field %s at offset %d, want before %d", f.Name, f.Offset, ptrEnd)
			}
		default:
			if hasPointers(f.Type) {
				t.Errorf("field %s (%s) at offset %d holds a pointer after the pointer words", f.Name, f.Type, f.Offset)
			}
		}
	}

	h := New(1 << 20)
	for n := 0; n <= 5; n++ {
		want := int64(ObjectHeaderBytes + ValueSlotBytes*n)
		obj, err := h.AllocObject(incClass(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := h.AllocArray(incClass(0), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Size() != want || arr.Size() != want || len(obj.Elems) != n || len(arr.Elems) != n {
			t.Errorf("%d slots: object %d bytes/%d slots, array %d bytes/%d slots, want %d bytes",
				n, obj.Size(), len(obj.Elems), arr.Size(), len(arr.Elems), want)
		}
		if obj.IsArray() || !arr.IsArray() {
			t.Errorf("%d slots: IsArray object=%v array=%v", n, obj.IsArray(), arr.IsArray())
		}
		if obj.cold.Load() != nil || arr.cold.Load() != nil {
			t.Errorf("%d slots: a plain allocation was born with a cold record", n)
		}
	}
	if got := h.Used(); got != 2*(6*ObjectHeaderBytes+ValueSlotBytes*15) {
		t.Errorf("used %d after the ladder", got)
	}
}

// hasPointers reports whether the host collector finds a pointer word in a
// value of type t.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestNativePayloadIsOneHostAllocation pins the one-host-allocation rule:
// strings and native-payload objects are born with their cold record
// inside the header's own allocation.
func TestNativePayloadIsOneHostAllocation(t *testing.T) {
	h := New(1 << 20)
	str, err := h.AllocString(incClass(0), "hello", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := &struct{ x int }{7}
	nat, err := h.AllocNative(incClass(0), payload, 16, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Object{"string": str, "native": nat} {
		want := unsafe.Add(unsafe.Pointer(o), unsafe.Offsetof(objectWithCold{}.cold))
		if got := unsafe.Pointer(o.cold.Load()); got != want {
			t.Errorf("%s: cold record at %p, want %p (inside the header's allocation)", name, got, want)
		}
	}
	if s, ok := str.StringValue(); !ok || s != "hello" || str.Size() != ObjectHeaderBytes+5 {
		t.Errorf("string: %q %v, %d bytes", s, ok, str.Size())
	}
	if nat.Native() != any(payload) || !nat.IsConnection() || nat.Size() != ObjectHeaderBytes+16 {
		t.Errorf("native: payload %v, connection %v, %d bytes", nat.Native(), nat.IsConnection(), nat.Size())
	}
	d := h.NewDomain()
	class := incClass(0)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := d.AllocNative(class, payload, 16, false, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2 { // one, plus the object list's amortised growth
		t.Errorf("AllocNative costs %.2f host allocations, want 1", allocs)
	}
}

// TestColdRecordAttachRace is the white-box half of the interpreter's
// test of the same name: goroutines lock, hash and resize the same fresh
// objects at once, and all of them must end up on one record.
func TestColdRecordAttachRace(t *testing.T) {
	const workers, objects = 8, 512
	h := New(1 << 20)
	class := incClass(0)
	objs := make([]*Object, objects)
	for i := range objs {
		objs[i], _ = h.AllocObject(class, 0)
	}
	monitors := make([][]*Monitor, workers)
	hashes := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		monitors[w] = make([]*Monitor, objects)
		hashes[w] = make([]int64, objects)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, o := range objs {
				switch (w + i) % 3 { // each worker attaches through a different door first
				case 0:
					monitors[w][i] = o.Monitor()
					hashes[w][i] = o.AssignIdentityHash(int64(w + 1))
					h.ResizeNative(o, int64(w+1))
				case 1:
					hashes[w][i] = o.AssignIdentityHash(int64(w + 1))
					h.ResizeNative(o, int64(w+1))
					monitors[w][i] = o.Monitor()
				default:
					h.ResizeNative(o, int64(w+1))
					monitors[w][i] = o.Monitor()
					hashes[w][i] = o.AssignIdentityHash(int64(w + 1))
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for i, o := range objs {
		for w := 1; w < workers; w++ {
			if monitors[w][i] != monitors[0][i] || hashes[w][i] != hashes[0][i] {
				t.Fatalf("object %d: worker %d got monitor %p hash %d, worker 0 got %p / %d",
					i, w, monitors[w][i], hashes[w][i], monitors[0][i], hashes[0][i])
			}
		}
		extra := o.cold.Load().extra.Load()
		if extra < 1 || extra > workers || o.Size() != ObjectHeaderBytes+extra {
			t.Fatalf("object %d: %d bytes with a %d-byte payload", i, o.Size(), extra)
		}
		total += o.Size()
	}
	if h.Used() != total {
		t.Fatalf("used %d, objects sum to %d", h.Used(), total)
	}
}
