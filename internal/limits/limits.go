// Package limits implements the three §4.4 experiments that demonstrate
// the precision limits of I-JVM's resource accounting:
//
//  1. CPU sampling charges most of the time of a cross-bundle call loop
//     to the callee (the paper measured roughly 75% callee / 25% caller);
//  2. collections triggered by allocations performed inside the callee on
//     behalf of the caller are charged to the callee;
//  3. a large object returned by a service and retained by its callers is
//     charged to the callers, not to the allocating service.
package limits

import (
	"fmt"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// Collector selects the garbage-collector configuration an experiment
// runs under. The §4.4 attribution results are collector-independent:
// who gets charged is decided on the allocation and reference paths,
// not by how the collection work is scheduled.
type Collector uint8

const (
	// CollectorDefault is the VM's stock configuration (incremental
	// cycles at the default threshold and stride).
	CollectorDefault Collector = iota
	// CollectorSTW is the exact stop-the-world reference collector (no
	// occupancy threshold, hence no incremental cycles).
	CollectorSTW
	// CollectorPaced is the incremental collector tuned aggressive: a
	// low opening threshold and a small mark stride, so cycles open
	// early and progress in many tiny increments interleaved with the
	// mutator.
	CollectorPaced
)

// Collectors lists the configurations the attribution matrix covers.
func Collectors() []Collector {
	return []Collector{CollectorDefault, CollectorSTW, CollectorPaced}
}

// String returns the collector name.
func (c Collector) String() string {
	switch c {
	case CollectorSTW:
		return "stw"
	case CollectorPaced:
		return "paced"
	default:
		return "default"
	}
}

// options returns the VM options selecting this collector.
func (c Collector) options() interp.Options {
	opts := interp.Options{Mode: core.ModeIsolated, HeapLimit: 64 << 20}
	switch c {
	case CollectorSTW:
		opts.GCThresholdPercent = -1
	case CollectorPaced:
		opts.GCThresholdPercent = 60
		opts.GCMarkStride = 64
	}
	return opts
}

// env is a two-isolate world: "service" (the callee, analogous to the
// paper's bundle A or dictionary service M) and "driver" (the caller).
type env struct {
	vm      *interp.VM
	runtime *core.Isolate // Isolate0 placeholder so bundles are standard isolates
	service *core.Isolate
	driver  *core.Isolate
}

func newEnv(collector Collector, serviceClasses, driverClasses []*classfile.Class) (*env, error) {
	vm := interp.NewVM(collector.options())
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	rtLoader := vm.Registry().NewLoader("runtime")
	runtime, err := vm.World().NewIsolate("runtime", rtLoader)
	if err != nil {
		return nil, err
	}
	svcLoader := vm.Registry().NewLoader("service")
	service, err := vm.World().NewIsolate("service", svcLoader)
	if err != nil {
		return nil, err
	}
	if err := svcLoader.DefineAll(serviceClasses); err != nil {
		return nil, err
	}
	drvLoader := vm.Registry().NewLoader("driver")
	driver, err := vm.World().NewIsolate("driver", drvLoader)
	if err != nil {
		return nil, err
	}
	drvLoader.AddDelegate(svcLoader)
	if err := drvLoader.DefineAll(driverClasses); err != nil {
		return nil, err
	}
	return &env{vm: vm, runtime: runtime, service: service, driver: driver}, nil
}

func (e *env) call(iso *core.Isolate, className, method, desc string, args []heap.Value) (heap.Value, error) {
	c, err := iso.Loader().Lookup(className)
	if err != nil {
		return heap.Value{}, err
	}
	m, err := c.LookupMethod(method, desc)
	if err != nil {
		return heap.Value{}, err
	}
	v, th, err := e.vm.CallRoot(iso, m, args, 0)
	if err != nil {
		return heap.Value{}, err
	}
	if th.Failure() != nil {
		return heap.Value{}, fmt.Errorf("%s.%s failed: %s", className, method, th.FailureString())
	}
	return v, nil
}

// CPUDistribution runs experiment 1 under the default collector; see
// CPUDistributionWith.
func CPUDistribution(n int64) (calleeShare, callerShare float64, err error) {
	return CPUDistributionWith(CollectorDefault, n)
}

// CPUDistributionWith runs experiment 1: the driver calls the service's
// function n times; returns the callee's and caller's share (percent) of
// the CPU samples attributed to the two bundles.
func CPUDistributionWith(collector Collector, n int64) (calleeShare, callerShare float64, err error) {
	const svcName = "limits/Svc"
	svc := classfile.NewClass(svcName).
		// f(x): the called function does a realistic amount of work —
		// several times the caller's loop overhead, which is what skews
		// the sampled CPU distribution toward the callee in the paper's
		// experiment ("since the callee updates the current isolate, it
		// executes more code than the caller").
		Method("f", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(3).IMul().Const(7).IAdd().IStore(1)
			a.ILoad(1).Const(5).IRem().ILoad(0).IAdd().IStore(1)
			a.ILoad(1).Const(13).IMul().Const(11).IRem().IStore(1)
			a.ILoad(1).ILoad(0).IXor().Const(255).IAnd().IStore(1)
			a.ILoad(1).ILoad(0).IAdd().IReturn()
		}).MustBuild()
	const drvName = "limits/Drv"
	drv := classfile.NewClass(drvName).
		Method("loop", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1).Const(0).IStore(2)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.ILoad(1).InvokeStatic(svcName, "f", "(I)I").IStore(2)
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(2).IReturn()
		}).MustBuild()

	e, err := newEnv(collector, []*classfile.Class{svc}, []*classfile.Class{drv})
	if err != nil {
		return 0, 0, err
	}
	if _, err := e.call(e.driver, drvName, "loop", "(I)I", []heap.Value{heap.IntVal(n)}); err != nil {
		return 0, 0, err
	}
	callee := e.service.Account().CPUSamples.Load()
	caller := e.driver.Account().CPUSamples.Load()
	total := callee + caller
	if total == 0 {
		return 0, 0, fmt.Errorf("no CPU samples recorded (n=%d too small?)", n)
	}
	return 100 * float64(callee) / float64(total), 100 * float64(caller) / float64(total), nil
}

// GCAttribution runs experiment 2 under the default collector; see
// GCAttributionWith.
func GCAttribution(n int64) (serviceGCs, driverGCs int64, err error) {
	return GCAttributionWith(CollectorDefault, n)
}

// GCAttributionWith runs experiment 2: the service's function allocates
// and returns a new object per call; the driver's loop forces
// collections. It returns the GC activations charged to the service and
// to the driver. The charge lands on the allocation that crossed the
// opening occupancy regardless of collector pacing, so the split is the
// same under the STW reference collector and the incremental one.
func GCAttributionWith(collector Collector, n int64) (serviceGCs, driverGCs int64, err error) {
	const svcName = "limits/AllocSvc"
	svc := classfile.NewClass(svcName).
		// fresh(): allocates and returns a new 1KB array.
		Method("fresh", "()Ljava/lang/Object;", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(128).NewArray("").AReturn()
		}).MustBuild()
	const drvName = "limits/AllocDrv"
	drv := classfile.NewClass(drvName).
		Method("loop", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.InvokeStatic(svcName, "fresh", "()Ljava/lang/Object;").Pop()
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(1).IReturn()
		}).MustBuild()

	e, err := newEnv(collector, []*classfile.Class{svc}, []*classfile.Class{drv})
	if err != nil {
		return 0, 0, err
	}
	if _, err := e.call(e.driver, drvName, "loop", "(I)I", []heap.Value{heap.IntVal(n)}); err != nil {
		return 0, 0, err
	}
	return e.service.Account().GCActivations.Load(), e.driver.Account().GCActivations.Load(), nil
}

// SharedMemoryCharge runs experiment 3 under the default collector; see
// SharedMemoryChargeWith.
func SharedMemoryCharge(payloadSlots int64) (serviceBytes, driverBytes int64, err error) {
	return SharedMemoryChargeWith(CollectorDefault, payloadSlots)
}

// SharedMemoryChargeWith runs experiment 3: the service returns a large
// object that the driver retains in a static; after a collection the
// object is charged to the driver ("the garbage collector does not charge
// the large objects to M but to the callers of M"). It returns the live
// bytes charged to each bundle.
func SharedMemoryChargeWith(collector Collector, payloadSlots int64) (serviceBytes, driverBytes int64, err error) {
	const svcName = "limits/Dict"
	svc := classfile.NewClass(svcName).
		// lookup(): the dictionary service returning a large result.
		Method("lookup", "(I)Ljava/lang/Object;", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).NewArray("").AReturn()
		}).MustBuild()
	const drvName = "limits/DictUser"
	drv := classfile.NewClass(drvName).
		StaticField("cache", classfile.KindRef).
		Method("fetch", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).InvokeStatic(svcName, "lookup", "(I)Ljava/lang/Object;").
				PutStatic(drvName, "cache")
			a.Const(1).IReturn()
		}).MustBuild()

	e, err := newEnv(collector, []*classfile.Class{svc}, []*classfile.Class{drv})
	if err != nil {
		return 0, 0, err
	}
	if _, err := e.call(e.driver, drvName, "fetch", "(I)I", []heap.Value{heap.IntVal(payloadSlots)}); err != nil {
		return 0, 0, err
	}
	e.vm.CollectGarbage(nil)
	return e.service.Live().Bytes, e.driver.Live().Bytes, nil
}
