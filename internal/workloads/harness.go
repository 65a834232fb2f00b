package workloads

import (
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// MicroKind selects one of Figure 1's micro benchmarks.
type MicroKind uint8

// Micro benchmark kinds.
const (
	// MicroIntra measures intra-isolate virtual calls.
	MicroIntra MicroKind = iota + 1
	// MicroInter measures inter-isolate virtual calls (thread
	// migration).
	MicroInter
	// MicroAlloc measures object allocation.
	MicroAlloc
	// MicroStatic measures static variable access (task class mirror
	// indirection).
	MicroStatic
)

// String returns the benchmark name as used in Figure 1.
func (k MicroKind) String() string {
	switch k {
	case MicroIntra:
		return "intra-isolate call"
	case MicroInter:
		return "inter-isolate call"
	case MicroAlloc:
		return "object allocation"
	case MicroStatic:
		return "static variable access"
	default:
		return "invalid"
	}
}

// MicroKinds lists all Figure 1 benchmarks in presentation order.
func MicroKinds() []MicroKind {
	return []MicroKind{MicroIntra, MicroInter, MicroAlloc, MicroStatic}
}

// Runner is a prepared workload: a VM with the workload classes loaded
// and a driver method resolvable; Run executes one driver invocation.
type Runner struct {
	vm     *interp.VM
	iso    *core.Isolate
	driver *classfile.Method
	n      int64
}

// VM exposes the underlying machine (stat collection in benches).
func (r *Runner) VM() *interp.VM { return r.vm }

// Isolate returns the isolate the driver runs in.
func (r *Runner) Isolate() *core.Isolate { return r.iso }

// Driver returns the driver method, run(n); the class that declares it
// declares the benchmark's other drivers too (rundrag).
func (r *Runner) Driver() *classfile.Method { return r.driver }

// Run performs one driver invocation run(n) and returns the checksum.
func (r *Runner) Run() (int64, error) {
	v, th, err := r.vm.CallRoot(r.iso, r.driver, []heap.Value{heap.IntVal(r.n)}, 0)
	if err != nil {
		return 0, err
	}
	if th.Failure() != nil {
		return 0, fmt.Errorf("workload failed: %s", th.FailureString())
	}
	return v.I, nil
}

// newVM builds a fresh VM with the system library installed.
func newVM(mode core.Mode) (*interp.VM, error) {
	vm := interp.NewVM(interp.Options{Mode: mode, HeapLimit: 512 << 20})
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	return vm, nil
}

// NewMicroRunner prepares one Figure 1 micro benchmark with iteration
// count n in the given mode.
func NewMicroRunner(mode core.Mode, kind MicroKind, n int64) (*Runner, error) {
	vm, err := newVM(mode)
	if err != nil {
		return nil, err
	}
	reg := vm.Registry()
	world := vm.World()

	switch kind {
	case MicroInter:
		// Two bundles: caller and callee, wired; the callee's service
		// instance is created in its own isolate, then bound into the
		// caller's static field.
		calleeLoader := reg.NewLoader("callee")
		calleeIso, err := world.NewIsolate("callee", calleeLoader)
		if err != nil {
			return nil, err
		}
		if err := calleeLoader.DefineAll(ServiceClasses()); err != nil {
			return nil, err
		}
		var callerIso *core.Isolate
		callerLoader := reg.NewLoader("caller")
		if world.Isolated() {
			callerIso, err = world.NewIsolate("caller", callerLoader)
			if err != nil {
				return nil, err
			}
		} else {
			callerIso = calleeIso
		}
		callerLoader.AddDelegate(calleeLoader)
		if err := callerLoader.DefineAll(CallerClasses()); err != nil {
			return nil, err
		}
		svcClass, err := calleeLoader.Lookup(ServiceClassName)
		if err != nil {
			return nil, err
		}
		makeM, err := svcClass.LookupMethod("make", "()Ljava/lang/Object;")
		if err != nil {
			return nil, err
		}
		svcObj, th, err := vm.CallRoot(calleeIso, makeM, nil, 1_000_000)
		if err != nil || th.Failure() != nil {
			return nil, fmt.Errorf("creating service: %v / %s", err, th.FailureString())
		}
		callerClass, err := callerLoader.Lookup(CallerClassName)
		if err != nil {
			return nil, err
		}
		bindM, err := callerClass.LookupMethod("bind", "(Ljava/lang/Object;)V")
		if err != nil {
			return nil, err
		}
		if _, th, err := vm.CallRoot(callerIso, bindM, []heap.Value{svcObj}, 1_000_000); err != nil || th.Failure() != nil {
			return nil, fmt.Errorf("binding service: %v / %s", err, th.FailureString())
		}
		driver, err := callerClass.LookupMethod(MicroDriverMethod, MicroDriverDesc)
		if err != nil {
			return nil, err
		}
		return &Runner{vm: vm, iso: callerIso, driver: driver, n: n}, nil

	case MicroIntra, MicroAlloc, MicroStatic:
		var classes []*classfile.Class
		var driverName string
		switch kind {
		case MicroIntra:
			classes, driverName = IntraCallClasses(), IntraClassName
		case MicroAlloc:
			classes, driverName = AllocClasses(), AllocClassName
		default:
			classes, driverName = StaticAccessClasses(), StaticClassName
		}
		l := reg.NewLoader("micro")
		iso, err := world.NewIsolate("micro", l)
		if err != nil {
			return nil, err
		}
		if err := l.DefineAll(classes); err != nil {
			return nil, err
		}
		c, err := l.Lookup(driverName)
		if err != nil {
			return nil, err
		}
		driver, err := c.LookupMethod(MicroDriverMethod, MicroDriverDesc)
		if err != nil {
			return nil, err
		}
		return &Runner{vm: vm, iso: iso, driver: driver, n: n}, nil
	default:
		return nil, fmt.Errorf("workloads: unknown micro kind %d", kind)
	}
}

// NewSpecRunner prepares one Figure 2 macro workload; n <= 0 selects the
// workload's default iteration count.
func NewSpecRunner(mode core.Mode, spec Spec, n int64) (*Runner, error) {
	if n <= 0 {
		n = spec.DefaultN
	}
	vm, err := newVM(mode)
	if err != nil {
		return nil, err
	}
	l := vm.Registry().NewLoader("spec:" + spec.Name)
	iso, err := vm.World().NewIsolate("spec:"+spec.Name, l)
	if err != nil {
		return nil, err
	}
	if err := l.DefineAll(spec.Classes()); err != nil {
		return nil, err
	}
	c, err := l.Lookup(spec.Driver)
	if err != nil {
		return nil, err
	}
	driver, err := c.LookupMethod(MicroDriverMethod, MicroDriverDesc)
	if err != nil {
		return nil, err
	}
	return &Runner{vm: vm, iso: iso, driver: driver, n: n}, nil
}
