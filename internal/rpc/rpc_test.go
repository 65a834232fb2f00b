package rpc_test

import (
	"strings"
	"testing"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
	"ijvm/internal/workloads"
)

// rpcEnv builds a VM with caller and callee isolates and a bound Service
// instance in the callee.
type rpcEnv struct {
	vm     *interp.VM
	caller *core.Isolate
	callee *core.Isolate
	method *classfile.Method
	recv   heap.Value
}

func newRPCEnv(t *testing.T) *rpcEnv {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	calleeLoader := vm.Registry().NewLoader("callee")
	callee, err := vm.World().NewIsolate("callee", calleeLoader)
	if err != nil {
		t.Fatal(err)
	}
	if err := calleeLoader.DefineAll(workloads.ServiceClasses()); err != nil {
		t.Fatal(err)
	}
	callerLoader := vm.Registry().NewLoader("caller")
	caller, err := vm.World().NewIsolate("caller", callerLoader)
	if err != nil {
		t.Fatal(err)
	}
	callerLoader.AddDelegate(calleeLoader)

	svcClass, err := calleeLoader.Lookup(workloads.ServiceClassName)
	if err != nil {
		t.Fatal(err)
	}
	makeM, err := svcClass.LookupMethod("make", "()Ljava/lang/Object;")
	if err != nil {
		t.Fatal(err)
	}
	recv, th, err := vm.CallRoot(callee, makeM, nil, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("make service: %v / %s", err, th.FailureString())
	}
	// The receiver outlives every link a test makes to it: a probe after
	// the last link closed and a collection ran must still find it.
	vm.Pin(callee.ID(), recv.R)
	incM, err := svcClass.LookupMethod("inc", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	return &rpcEnv{vm: vm, caller: caller, callee: callee, method: incM, recv: recv}
}

func TestIncommunicadoLink(t *testing.T) {
	e := newRPCEnv(t)
	hub := rpc.NewHub(e.vm)
	defer hub.Close()
	link, err := hub.NewLink(e.caller, e.callee, e.method, e.recv, rpc.LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	var last int64
	for i := 0; i < 10; i++ {
		v, err := link.Call([]heap.Value{heap.IntVal(2)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		last = v.I
	}
	if last != 20 {
		t.Fatalf("service state = %d after 10 inc(2) calls, want 20", last)
	}
}

func TestRMILoopback(t *testing.T) {
	e := newRPCEnv(t)
	srv, err := rpc.NewRMIServer(e.vm, e.callee, e.method, e.recv)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.NewRMIClient(e.vm, e.caller, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var last int64
	for i := 0; i < 10; i++ {
		v, err := client.Call([]heap.Value{heap.IntVal(3)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		last = v.I
	}
	if last != 30 {
		t.Fatalf("service state = %d after 10 inc(3) calls, want 30", last)
	}
}

func TestDeepCopyPreservesGraphShape(t *testing.T) {
	e := newRPCEnv(t)
	// Build an array with a cycle: arr[0] = arr.
	objClass, err := e.vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := e.vm.AllocArrayIn(nil, objClass, 3, e.caller)
	if err != nil {
		t.Fatal(err)
	}
	arr.Elems[0] = heap.RefVal(arr)
	inner, err := e.vm.NewStringObject(nil, e.caller, "payload")
	if err != nil {
		t.Fatal(err)
	}
	arr.Elems[1] = heap.RefVal(inner)
	arr.Elems[2] = heap.IntVal(7)

	copied, err := rpc.DeepCopyValue(e.vm, heap.RefVal(arr), e.callee)
	if err != nil {
		t.Fatal(err)
	}
	dup := copied.R
	if dup == arr {
		t.Fatal("copy returned the original object")
	}
	if dup.Elems[0].R != dup {
		t.Fatal("cycle not preserved")
	}
	if s, _ := dup.Elems[1].R.StringValue(); s != "payload" {
		t.Fatalf("string payload lost: %q", s)
	}
	if dup.Elems[2].I != 7 {
		t.Fatalf("int element lost: %d", dup.Elems[2].I)
	}
	if dup.Creator != e.callee.ID() {
		t.Fatalf("copy charged to isolate %d, want callee %d", dup.Creator, e.callee.ID())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	e := newRPCEnv(t)
	objClass, err := e.vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := e.vm.AllocArrayIn(nil, objClass, 2, e.caller)
	if err != nil {
		t.Fatal(err)
	}
	str, err := e.vm.NewStringObject(nil, e.caller, "wire")
	if err != nil {
		t.Fatal(err)
	}
	arr.Elems[0] = heap.RefVal(str)
	arr.Elems[1] = heap.RefVal(arr) // cycle

	data, err := rpc.Marshal([]heap.Value{
		heap.IntVal(42), heap.FloatVal(2.5), heap.Null(), heap.RefVal(arr),
	})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rpc.Unmarshal(e.vm, data, e.callee, e.callee.Loader())
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d values, want 4", len(vals))
	}
	if vals[0].I != 42 || vals[1].F != 2.5 || !vals[2].IsNull() {
		t.Fatalf("scalars corrupted: %v %v %v", vals[0], vals[1], vals[2])
	}
	got := vals[3].R
	if s, _ := got.Elems[0].R.StringValue(); s != "wire" {
		t.Fatalf("string lost: %q", s)
	}
	if got.Elems[1].R != got {
		t.Fatal("cycle lost through the wire")
	}
}

// TestUnmarshalCollectsMidDecode decodes a nested array-of-strings payload
// into a heap filled with garbage to within a few hundred bytes of its
// limit, so an allocation part-way through the payload collects. The
// containers decoded before that collection must survive it: a swept
// array has no slot vector left, and the next element store would index
// out of range.
func TestUnmarshalCollectsMidDecode(t *testing.T) {
	const outer, inner = 8, 8
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10})
	syslib.MustInstall(vm)
	iso, err := vm.World().NewIsolate("target", vm.Registry().NewLoader("target"))
	if err != nil {
		t.Fatal(err)
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	// The source graph is garbage once marshalled.
	top, err := vm.AllocArrayIn(nil, objClass, outer, iso)
	if err != nil {
		t.Fatal(err)
	}
	want := func(i, j int) string { return strings.Repeat("x", i) + "/" + strings.Repeat("y", j) }
	for i := 0; i < outer; i++ {
		row, err := vm.AllocArrayIn(nil, objClass, inner, iso)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < inner; j++ {
			s, err := vm.NewStringObject(nil, iso, want(i, j))
			if err != nil {
				t.Fatal(err)
			}
			row.Elems[j] = heap.RefVal(s)
		}
		top.Elems[i] = heap.RefVal(row)
	}
	data, err := rpc.Marshal([]heap.Value{heap.RefVal(top)})
	if err != nil {
		t.Fatal(err)
	}
	h := vm.Heap()
	for h.Limit()-h.Used() > 512 {
		if _, err := h.AllocObject(objClass, iso.ID()); err != nil {
			break
		}
	}
	before := h.GCCount()
	vals, err := rpc.Unmarshal(vm, data, iso, iso.Loader())
	if err != nil {
		t.Fatal(err)
	}
	if h.GCCount() == before {
		t.Fatal("decoding did not collect; the heap was not full enough to test anything")
	}
	got := vals[0].R
	if len(got.Elems) != outer {
		t.Fatalf("outer array has %d slots, want %d (swept mid-decode?)", len(got.Elems), outer)
	}
	for i := 0; i < outer; i++ {
		row := got.Elems[i].R
		if row == nil || len(row.Elems) != inner {
			t.Fatalf("row %d lost its slots (swept mid-decode?)", i)
		}
		for j := 0; j < inner; j++ {
			if s, _ := row.Elems[j].R.StringValue(); s != want(i, j) {
				t.Fatalf("[%d][%d] = %q, want %q", i, j, s, want(i, j))
			}
		}
	}
}

func TestMarshalRejectsNativePayloads(t *testing.T) {
	e := newRPCEnv(t)
	listClass, err := e.vm.Registry().Bootstrap().Lookup("java/util/ArrayList")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := e.vm.AllocNativeIn(nil, listClass, struct{}{}, 16, false, e.caller)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rpc.Marshal([]heap.Value{heap.RefVal(obj)})
	if err == nil || !strings.Contains(err.Error(), "native") {
		t.Fatalf("expected native-payload rejection, got %v", err)
	}
}
