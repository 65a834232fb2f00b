// Package ijvm is the public API of the I-JVM reproduction: a Java-like
// virtual machine with lightweight per-bundle isolates, thread migration
// on inter-isolate calls, per-isolate resource accounting, and safe
// isolate termination, as described in "I-JVM: a Java Virtual Machine for
// Component Isolation in OSGi" (Geoffray et al., DSN 2009).
//
// A VM runs in one of two modes:
//
//   - ModeShared reproduces the baseline JVM the paper compares against:
//     static variables, interned strings and Class objects are global, and
//     there is no accounting or termination support.
//   - ModeIsolated is I-JVM: every application class loader forms an
//     isolate with private statics/strings/Class objects (task class
//     mirrors), threads migrate between isolates on direct method calls,
//     resources are accounted per isolate, and isolates can be killed.
//
// Quick start:
//
//	vm, _ := ijvm.New(ijvm.Options{Mode: ijvm.ModeIsolated})
//	main, _ := vm.NewIsolate("main")
//	class := ijvm.NewClass("demo/Hello").
//	    Method("run", "()I", ijvm.FlagStatic, func(a *ijvm.Asm) {
//	        a.Const(21).Const(2).IMul().IReturn()
//	    }).MustBuild()
//	main.MustDefine(class)
//	v, _, _ := main.Call("demo/Hello", "run", nil)
//	fmt.Println(v.I) // 42
package ijvm

import (
	"errors"
	"fmt"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

// Re-exported types. These are aliases to the implementation types so the
// full builder/assembler API documented in the internal packages is
// available to library users through this package.
type (
	// Class is a loaded or under-construction class definition.
	Class = classfile.Class
	// ClassBuilder constructs class definitions fluently.
	ClassBuilder = classfile.ClassBuilder
	// Method is a declared method.
	Method = classfile.Method
	// Asm is the bytecode assembler passed to method bodies.
	Asm = bytecode.Assembler
	// Value is one tagged VM value.
	Value = heap.Value
	// Object is one heap object.
	Object = heap.Object
	// Snapshot is a per-isolate resource usage snapshot.
	Snapshot = core.Snapshot
	// Thresholds configures the admin-side DoS detectors.
	Thresholds = core.Thresholds
	// Finding is one detector hit.
	Finding = core.Finding
	// Thread is a green thread handle.
	Thread = interp.Thread
	// RunResult summarizes a scheduler run.
	RunResult = interp.RunResult
	// IsolateRun is one isolate's slice of a concurrent run's result.
	IsolateRun = interp.IsolateRun
	// Running is a concurrent run in progress (StartConcurrent); its
	// Wait returns the run's RunResult.
	Running = sched.Running
	// Mode selects Shared (baseline) or Isolated (I-JVM) semantics.
	Mode = core.Mode
	// Flags carries class/method/field access flags.
	Flags = classfile.Flags
	// Kind classifies VM values.
	Kind = classfile.Kind
	// NativeFunc is a host-implemented guest method.
	NativeFunc = interp.NativeFunc
	// NativeResult is a native method outcome.
	NativeResult = interp.NativeResult
)

// Re-exported constants.
const (
	// ModeShared is the baseline JVM (the paper's LadyVM / Sun JVM).
	ModeShared = core.ModeShared
	// ModeIsolated is I-JVM.
	ModeIsolated = core.ModeIsolated

	// FlagStatic marks static methods/fields.
	FlagStatic = classfile.FlagStatic
	// FlagPublic marks public members.
	FlagPublic = classfile.FlagPublic
	// FlagSynchronized marks synchronized methods.
	FlagSynchronized = classfile.FlagSynchronized

	// KindInt is the 64-bit integer value kind.
	KindInt = classfile.KindInt
	// KindFloat is the 64-bit float value kind.
	KindFloat = classfile.KindFloat
	// KindRef is the reference value kind.
	KindRef = classfile.KindRef

	// InitName is the constructor method name.
	InitName = classfile.InitName
	// ClinitName is the per-isolate class initializer name.
	ClinitName = classfile.ClinitName
	// ObjectClassName is the hierarchy root.
	ObjectClassName = classfile.ObjectClassName
	// StoppedIsolateExceptionClass is the class name of I-JVM's
	// termination exception.
	StoppedIsolateExceptionClass = interp.ClassStoppedIsolateException
)

// Value constructors, re-exported.
var (
	// IntVal builds an integer value.
	IntVal = heap.IntVal
	// FloatVal builds a float value.
	FloatVal = heap.FloatVal
	// RefVal builds a reference value.
	RefVal = heap.RefVal
	// Null builds the null reference.
	Null = heap.Null
	// NewClass starts a class definition.
	NewClass = classfile.NewClass
	// DefaultThresholds is a conservative detector configuration.
	DefaultThresholds = core.DefaultThresholds
	// Detect applies thresholds to snapshots.
	Detect = core.Detect
)

// Options configures a VM.
type Options struct {
	// Mode selects isolation semantics; the default is ModeIsolated.
	Mode Mode
	// HeapLimit is the heap capacity in modelled bytes (default 64 MiB).
	HeapLimit int64
	// MaxThreads caps live threads (default 4096).
	MaxThreads int
}

// VM is one virtual machine instance (not safe for concurrent use; the
// cooperative scheduler runs on the calling goroutine).
type VM struct {
	inner    *interp.VM
	isolates []*Isolate
}

// New creates a VM with the system library installed.
func New(opts Options) (*VM, error) {
	inner := interp.NewVM(interp.Options{
		Mode:       opts.Mode,
		HeapLimit:  opts.HeapLimit,
		MaxThreads: opts.MaxThreads,
	})
	if err := syslib.Install(inner); err != nil {
		return nil, err
	}
	return &VM{inner: inner}, nil
}

// MustNew is New for statically-correct configurations; it panics on
// error.
func MustNew(opts Options) *VM {
	vm, err := New(opts)
	if err != nil {
		panic(err)
	}
	return vm
}

// Inner exposes the underlying interpreter VM for advanced integrations
// (the OSGi framework and RPC baselines build on it).
func (vm *VM) Inner() *interp.VM { return vm.inner }

// Mode returns the VM's isolation mode.
func (vm *VM) Mode() Mode { return vm.inner.World().Mode() }

// Isolate is a protection domain handle. In Shared mode all handles share
// the single underlying world isolate (separate class loaders, no
// isolation) — exactly the baseline JVM's behaviour for OSGi bundles.
type Isolate struct {
	vm     *VM
	name   string
	loader *loader.Loader
	iso    *core.Isolate
}

// NewIsolate creates a new class loader and its protection domain. In
// Isolated mode the first call creates Isolate0 (all rights); in Shared
// mode every handle maps onto one world-wide isolate.
func (vm *VM) NewIsolate(name string) (*Isolate, error) {
	l := vm.inner.Registry().NewLoader(name)
	var iso *core.Isolate
	var err error
	if vm.Mode() == ModeIsolated || vm.inner.World().NumIsolates() == 0 {
		iso, err = vm.inner.World().NewIsolate(name, l)
		if err != nil {
			return nil, err
		}
	} else {
		iso = vm.inner.World().Isolate0()
	}
	h := &Isolate{vm: vm, name: name, loader: l, iso: iso}
	vm.isolates = append(vm.isolates, h)
	return h, nil
}

// MustNewIsolate panics on error.
func (vm *VM) MustNewIsolate(name string) *Isolate {
	iso, err := vm.NewIsolate(name)
	if err != nil {
		panic(err)
	}
	return iso
}

// Name returns the isolate's name.
func (i *Isolate) Name() string { return i.name }

// Core returns the underlying core isolate.
func (i *Isolate) Core() *core.Isolate { return i.iso }

// Loader returns the isolate's class loader.
func (i *Isolate) Loader() *loader.Loader { return i.loader }

// Killed reports whether the isolate has been terminated.
func (i *Isolate) Killed() bool { return i.iso.Killed() }

// Define links a class into the isolate's loader.
func (i *Isolate) Define(c *Class) error { return i.loader.Define(c) }

// MustDefine panics on definition failure.
func (i *Isolate) MustDefine(c *Class) *Class { return i.loader.MustDefine(c) }

// DefineAll defines a set of classes in dependency order.
func (i *Isolate) DefineAll(classes []*Class) error { return i.loader.DefineAll(classes) }

// Wire makes other's classes resolvable from this isolate (OSGi
// import-package wiring).
func (i *Isolate) Wire(other *Isolate) { i.loader.AddDelegate(other.loader) }

// LookupMethod resolves className.methodName through the isolate's
// loader.
func (i *Isolate) LookupMethod(className, methodName string) (*Method, error) {
	c, err := i.loader.Lookup(className)
	if err != nil {
		return nil, err
	}
	for _, m := range c.Methods {
		if m.Name == methodName {
			return m, nil
		}
	}
	return nil, fmt.Errorf("method %s not found in %s", methodName, className)
}

// Call invokes a (usually static) method on a fresh thread and runs the
// scheduler until it finishes. A budget of 0 selects 100M instructions.
func (i *Isolate) Call(className, methodName string, args []Value) (Value, *Thread, error) {
	return i.CallBudget(className, methodName, args, 0)
}

// CallBudget is Call with an explicit instruction budget.
func (i *Isolate) CallBudget(className, methodName string, args []Value, budget int64) (Value, *Thread, error) {
	m, err := i.LookupMethod(className, methodName)
	if err != nil {
		return Value{}, nil, err
	}
	if budget <= 0 {
		budget = 100_000_000
	}
	return i.vm.inner.CallRoot(i.iso, m, args, budget)
}

// Spawn starts a thread for the method without running the scheduler.
func (i *Isolate) Spawn(className, methodName string, args []Value) (*Thread, error) {
	m, err := i.LookupMethod(className, methodName)
	if err != nil {
		return nil, err
	}
	return i.vm.inner.SpawnThread(i.name+":"+methodName, i.iso, m, args)
}

// Snapshot returns the isolate's resource usage (run GC first for fresh
// live-memory numbers).
func (i *Isolate) Snapshot() Snapshot { return i.vm.inner.SnapshotOf(i.iso) }

// Run drives the cooperative sequential scheduler for at most budget
// instructions (0 = unlimited).
func (vm *VM) Run(budget int64) RunResult { return vm.inner.Run(budget) }

// RunUntil drives the scheduler until t finishes or budget is exhausted.
func (vm *VM) RunUntil(t *Thread, budget int64) RunResult { return vm.inner.RunUntil(t, budget) }

// StartConcurrent starts executing the VM's live threads on a bounded
// pool of workers instead of the cooperative loop: each isolate forms a
// shard, shards run in parallel (threads migrate between shards on
// inter-isolate calls), and CPU is shared in proportion to isolate
// weights. workers <= 0 selects GOMAXPROCS; budget <= 0 means unlimited.
//
// It returns once the run is attached: from then on Spawn, Snapshots,
// Detect, Kill and GC from any goroutine reach the run, and Kill takes
// effect mid-run through the scheduler's stop-the-world safepoint. Wait
// returns the RunResult: per isolate, executed instructions, kill state
// and remaining threads (isolates freed during the run are summed in
// FreedIsolates). It must not overlap with Run/RunUntil or a second
// concurrent run on the same VM.
func (vm *VM) StartConcurrent(workers int, budget int64) *Running {
	return sched.Start(vm.inner, sched.Config{Workers: workers, Budget: budget})
}

// GC runs an accounting collection; triggeredBy may be nil.
func (vm *VM) GC(triggeredBy *Isolate) {
	var iso *core.Isolate
	if triggeredBy != nil {
		iso = triggeredBy.iso
	}
	vm.inner.CollectGarbage(iso)
}

// Kill terminates an isolate as an administrative (host) action.
func (vm *VM) Kill(target *Isolate) error {
	if vm.Mode() != ModeIsolated {
		return errors.New("ijvm: termination requires ModeIsolated")
	}
	return vm.inner.KillIsolate(nil, target.iso)
}

// Snapshots returns resource snapshots of all world isolates.
func (vm *VM) Snapshots() []Snapshot { return vm.inner.Snapshots() }

// Output returns captured guest System.out.
func (vm *VM) Output() string { return vm.inner.Output() }

// ResetOutput clears captured output.
func (vm *VM) ResetOutput() { vm.inner.ResetOutput() }

// Isolates returns the isolate handles created through this facade.
func (vm *VM) Isolates() []*Isolate { return append([]*Isolate(nil), vm.isolates...) }
