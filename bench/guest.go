package main

import (
	"fmt"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
	"ijvm/internal/syslib"
)

// This file holds the guest programs the harness owns (the paper's
// programs come from internal/workloads) and the helper that runs one
// guest entry point and checks it finished without a guest exception.

const objectInit = "()V"

// newVM builds a VM with the system library installed.
func newVM(opts interp.Options) (*interp.VM, error) {
	vm := interp.NewVM(opts)
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	return vm, nil
}

// newIsolate creates an isolate with its own loader. The Shared baseline
// has one isolate for everything; later calls get a fresh loader bound to
// it, so the same set-up code serves both modes.
func newIsolate(vm *interp.VM, name string) (*core.Isolate, *loader.Loader, error) {
	l := vm.Registry().NewLoader(name)
	if !vm.World().Isolated() {
		if iso := vm.World().Isolate0(); iso != nil {
			return iso, l, nil
		}
	}
	iso, err := vm.World().NewIsolate(name, l)
	return iso, l, err
}

// prog is one guest entry point bound to its VM, isolate and arguments.
type prog struct {
	name string
	vm   *interp.VM
	iso  *core.Isolate
	m    *classfile.Method
	args []heap.Value
	// ops is the number of guest-level operations one run performs (calls,
	// allocations, stores), for per-operation metrics.
	ops int64
}

// run performs one invocation and returns the guest checksum.
func (p *prog) run() (int64, error) {
	v, th, err := p.vm.CallRoot(p.iso, p.m, p.args, 0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	if th.Failure() != nil {
		return 0, fmt.Errorf("%s: guest exception: %s", p.name, th.FailureString())
	}
	return v.I, nil
}

// define loads classes into a fresh isolate of vm and binds a static
// entry point of driver.
func define(vm *interp.VM, name string, classes []*classfile.Class, driver, method, desc string) (*prog, error) {
	iso, l, err := newIsolate(vm, name)
	if err != nil {
		return nil, err
	}
	if err := l.DefineAll(classes); err != nil {
		return nil, err
	}
	c, err := l.Lookup(driver)
	if err != nil {
		return nil, err
	}
	m, err := c.LookupMethod(method, desc)
	if err != nil {
		return nil, err
	}
	return &prog{name: name, vm: vm, iso: iso, m: m}, nil
}

// pinnedArray allocates an Object[] of n slots charged to iso and pins it
// so host-held arguments survive collections.
func pinnedArray(vm *interp.VM, iso *core.Isolate, n int) (*heap.Object, error) {
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return nil, err
	}
	arr, err := vm.AllocArrayIn(nil, objClass, n, iso)
	if err != nil {
		return nil, err
	}
	vm.Pin(iso.ID(), arr)
	return arr, nil
}

// intArray is pinnedArray filled with the given ints.
func intArray(vm *interp.VM, iso *core.Isolate, vals []int64) (*heap.Object, error) {
	arr, err := pinnedArray(vm, iso, len(vals))
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		arr.Elems[i] = heap.IntVal(v)
	}
	return arr, nil
}

// --- megacall: one invokevirtual site, k receiver classes ------------------

const (
	megacallDriver = "mc/Driver"
	megacallDesc   = "(Ljava/lang/Object;I)I"
	// megacallOrderLen is the length of the seed-drawn receiver order the
	// site cycles through (a power of two: the guest masks the index).
	megacallOrderLen = 64
)

// megacallClasses builds Base, k subclasses overriding f(I)I, and a driver
// run(order, n) whose single call site sees receiver order[i & 63] on
// iteration i. Impl j adds j+1, so the result depends on the order.
func megacallClasses(k int) []*classfile.Class {
	ctor := func(super string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, objectInit).Return()
		}
	}
	classes := []*classfile.Class{classfile.NewClass("mc/Base").
		Method(classfile.InitName, objectInit, 0, ctor(classfile.ObjectClassName)).
		Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).IReturn()
		}).MustBuild()}
	for j := 0; j < k; j++ {
		add := int64(j + 1)
		classes = append(classes, classfile.NewClass(fmt.Sprintf("mc/Impl%d", j)).
			Super("mc/Base").
			Method(classfile.InitName, objectInit, 0, ctor("mc/Base")).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(add).IAdd().Const(0x7FFFFF).IAnd().IReturn()
			}).MustBuild())
	}
	driver := classfile.NewClass(megacallDriver).
		Method("run", megacallDesc, classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0=order 1=n 2=receivers 3=acc 4=i
			a.Const(int64(k)).NewArray("").AStore(2)
			for j := 0; j < k; j++ {
				name := fmt.Sprintf("mc/Impl%d", j)
				a.ALoad(2).Const(int64(j))
				a.New(name).Dup().InvokeSpecial(name, classfile.InitName, objectInit)
				a.ArrayStore()
			}
			a.Const(0).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(4).ILoad(1).IfICmpGe("done")
			a.ALoad(2)
			a.ALoad(0).ILoad(4).Const(megacallOrderLen - 1).IAnd().ArrayLoad()
			a.ArrayLoad()
			a.ILoad(3).InvokeVirtual("mc/Base", "f", "(I)I").IStore(3)
			a.IInc(4, 1).Goto("loop")
			a.Label("done").ILoad(3).IReturn()
		}).MustBuild()
	return append(classes, driver)
}

// newMegacall defines the k-receiver program in vm; order holds
// megacallOrderLen receiver indices below k.
func newMegacall(vm *interp.VM, name string, k int, order []int64, n int64) (*prog, error) {
	p, err := define(vm, name, megacallClasses(k), megacallDriver, "run", megacallDesc)
	if err != nil {
		return nil, err
	}
	arr, err := intArray(vm, p.iso, order)
	if err != nil {
		return nil, err
	}
	p.args = []heap.Value{heap.RefVal(arr), heap.IntVal(n)}
	p.ops = n
	return p, nil
}

// --- storegraph: reference stores into an old, pinned graph ----------------

const (
	storegraphObjects = 20_000
	// storegraphIdxLen is the length of the seed-drawn index table (a
	// power of two: the guest masks its position).
	storegraphIdxLen = 1024
	storegraphDriver = "sg/Main"
	storegraphDesc   = "(Ljava/lang/Object;Ljava/lang/Object;I)I"
)

// storegraphClasses builds run(spine, idx, n): iteration i swaps the spine
// slots idx[i&1023] and idx[(i+1)&1023] — two reference stores into an old
// array per iteration, the graph stays a permutation of itself.
func storegraphClasses() []*classfile.Class {
	main := classfile.NewClass(storegraphDriver).
		Method("run", storegraphDesc, classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0=spine 1=idx 2=n 3=i 4=acc 5=j 6=k 7=tmp
			a.Const(0).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(3).ILoad(2).IfICmpGe("done")
			a.ALoad(1).ILoad(3).Const(storegraphIdxLen - 1).IAnd().ArrayLoad().IStore(5)
			a.ALoad(1).ILoad(3).Const(1).IAdd().Const(storegraphIdxLen - 1).IAnd().ArrayLoad().IStore(6)
			a.ALoad(0).ILoad(5).ArrayLoad().AStore(7)
			a.ALoad(0).ILoad(5).ALoad(0).ILoad(6).ArrayLoad().ArrayStore()
			a.ALoad(0).ILoad(6).ALoad(7).ArrayStore()
			a.ILoad(4).ILoad(5).IAdd().Const(0x7FFFFF).IAnd().IStore(4)
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(4).IReturn()
		}).MustBuild()
	return []*classfile.Class{main}
}

// storegraph is the program plus the pinned spine it mutates.
type storegraph struct {
	*prog
	spine *heap.Object
}

// newStoregraph pins a spine of storegraphObjects objects in vm and binds
// run(spine, idx, n) to it.
func newStoregraph(vm *interp.VM, name string, idx []int64, n int64) (*storegraph, error) {
	p, err := define(vm, name, storegraphClasses(), storegraphDriver, "run", storegraphDesc)
	if err != nil {
		return nil, err
	}
	spine, err := pinnedArray(vm, p.iso, storegraphObjects)
	if err != nil {
		return nil, err
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return nil, err
	}
	for i := range spine.Elems {
		o, err := vm.AllocObjectIn(nil, objClass, p.iso)
		if err != nil {
			return nil, err
		}
		spine.Elems[i] = heap.RefVal(o)
	}
	idxArr, err := intArray(vm, p.iso, idx)
	if err != nil {
		return nil, err
	}
	p.args = []heap.Value{heap.RefVal(spine), heap.RefVal(idxArr), heap.IntVal(n)}
	p.ops = 2 * n
	return &storegraph{prog: p, spine: spine}, nil
}

// intact reports whether the spine still holds every object exactly once.
func (s *storegraph) intact() bool {
	seen := make(map[*heap.Object]struct{}, len(s.spine.Elems))
	for _, v := range s.spine.Elems {
		if v.R == nil {
			return false
		}
		seen[v.R] = struct{}{}
	}
	return len(seen) == len(s.spine.Elems)
}

// --- small fixtures ---------------------------------------------------------

// identityClass builds id(I)I, the cheapest guest entry point: timing
// CallRoot on it gives the cost of entering and leaving the engine.
func identityClass(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("id", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).IReturn()
		}).MustBuild()
}

// spinClass builds run(n): n empty loop iterations, returns n.
func spinClass(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("run", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()
}

// --- the four §4.3 attackers -------------------------------------------------

// spinForeverClass is the standalone infinite loop (attack A6); it is also
// the weight-1 keeper that holds a scheduler run open between sessions.
func spinForeverClass(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").IInc(0, 1).Goto("loop")
		}).MustBuild()
}

// allocFloodClass allocates and drops arrLen-slot arrays forever (A1/A4).
func allocFloodClass(cn string, arrLen int) *classfile.Class {
	return classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Label("loop")
			a.Const(int64(arrLen)).NewArray(classfile.ObjectClassName).Pop()
			a.Goto("loop")
		}).MustBuild()
}

// monitorHogClasses starts n guest threads that sleep forever (A5/A7),
// stops at the first refused spawn, then spins.
func monitorHogClasses(cn string) []*classfile.Class {
	sleeper := cn + "$Sleeper"
	s := classfile.NewClass(sleeper).
		Method(classfile.InitName, objectInit, classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, objectInit).Return()
		}).
		Method("run", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).InvokeStatic(interp.ClassThread, "sleep", "(I)V").Return()
		}).MustBuild()
	h := classfile.NewClass(cn).
		Method("attack", "(I)V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("spin")
			a.Label("try")
			a.New(sleeper).Dup().InvokeSpecial(sleeper, classfile.InitName, objectInit).AStore(2)
			a.New(interp.ClassThread).Dup().ALoad(2).
				InvokeSpecial(interp.ClassThread, classfile.InitName, "(Ljava/lang/Object;)V").AStore(3)
			a.ALoad(3).InvokeVirtual(interp.ClassThread, "start", "()V")
			a.Label("endtry")
			a.IInc(1, 1).Goto("loop")
			a.Label("catch").Pop().Goto("spin")
			a.Label("spin").Const(0).IStore(1)
			a.Label("spinloop").IInc(1, 1).Goto("spinloop")
			a.Handler("try", "endtry", "catch", interp.ClassThrowable)
		}).MustBuild()
	return []*classfile.Class{s, h}
}

// callFloodClasses loops a static call into a second attacker-owned
// isolate, migrating the thread on every call and return.
func callFloodClasses(cn, peerCn string) (main, peer *classfile.Class) {
	peer = classfile.NewClass(peerCn).
		Method("ping", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).MustBuild()
	main = classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop")
			a.ILoad(0).InvokeStatic(peerCn, "ping", "(I)I").IStore(0)
			a.Goto("loop")
		}).MustBuild()
	return main, peer
}
