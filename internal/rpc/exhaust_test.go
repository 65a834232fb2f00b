package rpc_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
)

// exhaustLen is the length of every array the exhaustion paths allocate:
// 28+8·1024 modelled bytes, more than any allocation domain's slack, so
// each of them needs the heap.
const exhaustLen = 1024

const exhaustClassName = "rpctest/Exhaust"

// exhaustClasses holds the guest side of the exhaustion paths: a static
// array the copy-out and clone paths carry, a copy-in sink and a guest
// allocation.
func exhaustClasses() []*classfile.Class {
	static := classfile.FlagPublic | classfile.FlagStatic
	c := classfile.NewClass(exhaustClassName).
		StaticField("big", classfile.KindRef).
		// init() stores a fresh exhaustLen-element array in big.
		Method("init", "()I", static, func(a *bytecode.Assembler) {
			a.Const(exhaustLen).NewArray("").PutStatic(exhaustClassName, "big")
			a.Const(0).IReturn()
		}).
		// get() returns big.
		Method("get", "()Ljava/lang/Object;", static, func(a *bytecode.Assembler) {
			a.GetStatic(exhaustClassName, "big").AReturn()
		}).
		// sink(x) returns 0: only its argument's copy-in allocates.
		Method("sink", "(Ljava/lang/Object;)I", static, func(a *bytecode.Assembler) {
			a.Const(0).IReturn()
		}).
		// alloc() is the length of a fresh exhaustLen-element array.
		Method("alloc", "()I", static, func(a *bytecode.Assembler) {
			a.Const(exhaustLen).NewArray("").ArrayLength().IReturn()
		}).
		// spin() loops until its call budget aborts it, allocating nothing.
		Method("spin", "()I", static, func(a *bytecode.Assembler) {
			a.Label("loop").Goto("loop")
		}).MustBuild()
	return []*classfile.Class{c}
}

// exhaustEnv is a small heap with a caller and a callee isolate, the
// callee's class initialized, and a caller-owned payload array.
type exhaustEnv struct {
	vm             *interp.VM
	caller, callee *core.Isolate
	payload        heap.Value
}

func newExhaustEnv(t *testing.T) *exhaustEnv {
	t.Helper()
	// The reference collector opens no background cycle, so the only
	// collections are the ones the paths run.
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10, GCThresholdPercent: -1})
	syslib.MustInstall(vm)
	e := &exhaustEnv{vm: vm}
	var err error
	if e.callee, err = vm.NewIsolate("callee"); err != nil {
		t.Fatal(err)
	}
	if e.caller, err = vm.NewIsolate("caller"); err != nil {
		t.Fatal(err)
	}
	// The classes live in an isolate-less loader, so the callee can be
	// captured as a snapshot template.
	tl := vm.Registry().NewLoader("template")
	if err := tl.DefineAll(exhaustClasses()); err != nil {
		t.Fatal(err)
	}
	e.callee.Loader().AddDelegate(tl)
	if _, err := e.call(t, "init", "()I"); err != nil {
		t.Fatal(err)
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := vm.AllocArrayIn(nil, objClass, exhaustLen, e.caller)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr.Elems {
		arr.Elems[i] = heap.IntVal(int64(i))
	}
	e.payload = heap.RefVal(arr)
	return e
}

func (e *exhaustEnv) method(t *testing.T, name, desc string) *classfile.Method {
	t.Helper()
	c, err := e.callee.Loader().Lookup(exhaustClassName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod(name, desc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// call runs a static method of the callee's class on the sequential
// engine.
func (e *exhaustEnv) call(t *testing.T, name, desc string) (heap.Value, error) {
	v, th, err := e.vm.CallRoot(e.callee, e.method(t, name, desc), nil, 1_000_000)
	if err != nil {
		return heap.Value{}, err
	}
	if th.Failure() != nil {
		return heap.Value{}, errors.New(th.FailureString())
	}
	return v, nil
}

// fill allocates unrooted objects until the heap refuses one: from here
// the heap is full of garbage, and no allocation fits until a collection
// has run.
func (e *exhaustEnv) fill(t *testing.T) {
	t.Helper()
	objClass, err := e.vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := e.vm.Heap().AllocObject(objClass, e.caller.ID()); err != nil {
			return
		}
	}
}

// activations reads every isolate's GC activations by name.
func (e *exhaustEnv) activations() map[string]int64 {
	m := make(map[string]int64)
	for _, iso := range e.vm.World().Isolates() {
		m[iso.Name()] = iso.Account().GCActivations.Load()
	}
	return m
}

// linkCall makes one call through a fresh hub and link and tears both
// down.
func (e *exhaustEnv) linkCall(t *testing.T, name, desc string, args []heap.Value) error {
	hub := rpc.NewHub(e.vm)
	defer hub.Close()
	link, err := hub.NewLink(e.caller, e.callee, e.method(t, name, desc), heap.Void(), rpc.LinkOptions{})
	if err != nil {
		return err
	}
	defer link.Close()
	_, err = link.Call(args)
	return err
}

// TestAllocationExhaustionPerPath pins, for every kind of allocating
// caller, what an exhausted heap costs: each path runs against a heap
// full of garbage, and the test records how many collections it ran,
// whether it succeeded, and whose GC activations moved. An engine or
// unrooted host allocation collects once, charged to the allocating
// isolate, and retries; a link copy (in or out) collects through the hub
// and DeepCopyValue through a plain collection, charged to nobody; the
// RMI decoder charges the target; a clone that does not fit fails with no
// retry, and its unwind is the one collection.
func TestAllocationExhaustionPerPath(t *testing.T) {
	cases := []struct {
		name string
		// setup runs before the heap is filled and returns the path.
		setup   func(t *testing.T, e *exhaustEnv) func() error
		fails   bool
		charged string // the isolate whose activations move, "" for nobody
	}{
		{"guest new", func(t *testing.T, e *exhaustEnv) func() error {
			return func() error {
				v, err := e.call(t, "alloc", "()I")
				if err == nil && v.I != exhaustLen {
					err = fmt.Errorf("alloc() = %d", v.I)
				}
				return err
			}
		}, false, "callee"},
		{"host NewStringObject", func(t *testing.T, e *exhaustEnv) func() error {
			return func() error {
				_, err := e.vm.NewStringObject(nil, e.caller, strings.Repeat("s", 8*exhaustLen))
				return err
			}
		}, false, "caller"},
		{"link copy-in", func(t *testing.T, e *exhaustEnv) func() error {
			return func() error { return e.linkCall(t, "sink", "(Ljava/lang/Object;)I", []heap.Value{e.payload}) }
		}, false, ""},
		{"link copy-in beside a running call", func(t *testing.T, e *exhaustEnv) func() error {
			// The collection must wait for the engine: a worker is in the
			// middle of another call on the same hub.
			hub := rpc.NewHub(e.vm)
			t.Cleanup(hub.Close)
			spin, err := hub.NewLink(e.caller, e.callee, e.method(t, "spin", "()I"), heap.Void(), rpc.LinkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(spin.Close)
			sink, err := hub.NewLink(e.caller, e.callee, e.method(t, "sink", "(Ljava/lang/Object;)I"), heap.Void(), rpc.LinkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sink.Close)
			ran := e.callee.Account().Instructions.Load()
			fut, err := spin.CallAsync(nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fut.Release)
			for e.callee.Account().Instructions.Load() == ran {
				runtime.Gosched()
			}
			return func() error {
				_, err := sink.Call([]heap.Value{e.payload})
				return err
			}
		}, false, ""},
		{"link copy-out", func(t *testing.T, e *exhaustEnv) func() error {
			return func() error { return e.linkCall(t, "get", "()Ljava/lang/Object;", nil) }
		}, false, ""},
		{"DeepCopyValue", func(t *testing.T, e *exhaustEnv) func() error {
			return func() error {
				_, err := rpc.DeepCopyValue(e.vm, e.payload, e.callee)
				return err
			}
		}, false, ""},
		{"RMI Unmarshal", func(t *testing.T, e *exhaustEnv) func() error {
			data, err := rpc.Marshal([]heap.Value{e.payload})
			if err != nil {
				t.Fatal(err)
			}
			return func() error {
				_, err := rpc.Unmarshal(e.vm, data, e.callee, e.callee.Loader())
				return err
			}
		}, false, "callee"},
		{"CloneIsolate", func(t *testing.T, e *exhaustEnv) func() error {
			snap, err := e.vm.CaptureSnapshot(e.callee, interp.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(snap.Release)
			return func() error {
				_, err := e.vm.CloneIsolate(snap, "clone")
				return err
			}
		}, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newExhaustEnv(t)
			run := tc.setup(t, e)
			e.fill(t)
			before, gcs := e.activations(), e.vm.Heap().GCCount()
			err := run()
			gcs = e.vm.Heap().GCCount() - gcs
			moved := make(map[string]int64)
			for name, n := range e.activations() {
				if d := n - before[name]; d != 0 {
					moved[name] = d
				}
			}
			want := map[string]int64{}
			if tc.charged != "" {
				want[tc.charged] = 1
			}
			if (err != nil) != tc.fails {
				t.Errorf("error %v, want failure %v", err, tc.fails)
			}
			if tc.fails && !errors.Is(err, heap.ErrOutOfMemory) {
				t.Errorf("failed with %v, want heap.ErrOutOfMemory", err)
			}
			if gcs != 1 {
				t.Errorf("%d collections, want 1", gcs)
			}
			if fmt.Sprint(moved) != fmt.Sprint(want) {
				t.Errorf("GC activations moved %v, want %v", moved, want)
			}
		})
	}
}
