// Benchmarks regenerating the paper's evaluation (§4):
//
//   - BenchmarkTable1_*: cost of 200 inter-bundle calls under the four
//     communication models (local, RMI local, Incommunicado, I-JVM).
//   - BenchmarkFig1_*: the four micro-benchmarks, Shared (LadyVM
//     baseline) vs Isolated (I-JVM).
//   - BenchmarkFig2_*: the SPEC JVM98-analogue workloads in both modes.
//   - BenchmarkFig3_*: memory consumption of the Felix-like and
//     Equinox-like OSGi configurations in both modes (reported as a
//     custom heap-bytes metric).
//   - BenchmarkAblation*: the design-choice ablations from DESIGN.md §5.
//
// Absolute numbers are host-dependent; compare Shared vs Isolated within
// one run (cmd/benchtable prints the ratio tables).
package ijvm

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/rpc"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
	"ijvm/internal/workloads"
	"ijvm/internal/workloads/mesh"
)

const table1Calls = 200

func modeLabel(mode core.Mode) string {
	if mode == core.ModeShared {
		return "Baseline"
	}
	return "IJVM"
}

// --- Table 1 ---------------------------------------------------------------

// BenchmarkTable1_LocalCall measures 200 direct drag calls inside one
// isolate (the event object is shared by reference).
func BenchmarkTable1_LocalCall(b *testing.B) {
	r, err := workloads.NewMicroRunner(core.ModeIsolated, workloads.MicroIntra, table1Calls)
	if err != nil {
		b.Fatal(err)
	}
	if r, err = r.WithDriver(workloads.DragDriverMethod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_IJVMCall measures 200 inter-isolate direct drag calls
// (thread migration; the event object is shared by reference).
func BenchmarkTable1_IJVMCall(b *testing.B) {
	r, err := workloads.NewMicroRunner(core.ModeIsolated, workloads.MicroInter, table1Calls)
	if err != nil {
		b.Fatal(err)
	}
	if r, err = r.WithDriver(workloads.DragDriverMethod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// table1RPCEnv prepares the service pair used by the RPC baselines.
func table1RPCEnv(b testing.TB) (*interp.VM, *core.Isolate, *core.Isolate, heap.Value, *workloads.Runner) {
	b.Helper()
	r, err := workloads.NewMicroRunner(core.ModeIsolated, workloads.MicroInter, 1)
	if err != nil {
		b.Fatal(err)
	}
	vm := r.VM()
	world := vm.World()
	callee := world.IsolateByID(0) // harness creates callee first
	caller := r.Isolate()
	svcClass, err := callee.Loader().Lookup(workloads.ServiceClassName)
	if err != nil {
		b.Fatal(err)
	}
	makeM, err := svcClass.LookupMethod("make", "()Ljava/lang/Object;")
	if err != nil {
		b.Fatal(err)
	}
	recv, th, err := vm.CallRoot(callee, makeM, nil, 1_000_000)
	if err != nil || th.Failure() != nil {
		b.Fatalf("make: %v", err)
	}
	return vm, caller, callee, recv, r
}

// dragEvent allocates the event object the drag calls pass across the
// bundle boundary (shared by reference in direct calls; copied or
// serialized by the RPC baselines).
func dragEvent(b testing.TB, vm *interp.VM, iso *core.Isolate) heap.Value {
	b.Helper()
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := vm.AllocArrayIn(nil, objClass, 8, iso)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		arr.Elems[i] = heap.IntVal(int64(i) * 10)
	}
	str, err := vm.NewStringObject(nil, iso, "drag-event")
	if err != nil {
		b.Fatal(err)
	}
	arr.Elems[4] = heap.RefVal(str)
	return heap.RefVal(arr)
}

// BenchmarkTable1_Incommunicado measures 200 drag calls through the
// MVM-style link (per-call deep copy of the event + thread handoff).
func BenchmarkTable1_Incommunicado(b *testing.B) {
	vm, caller, callee, recv, _ := table1RPCEnv(b)
	svcClass, _ := callee.Loader().Lookup(workloads.ServiceClassName)
	dragM, _ := svcClass.LookupMethod("drag", "(Ljava/lang/Object;)I")
	link := rpc.NewLink(vm, caller, callee, dragM, recv)
	defer link.Close()
	args := []heap.Value{dragEvent(b, vm, caller)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < table1Calls; c++ {
			if _, err := link.Call(args); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1_RMI measures 200 drag calls with per-call
// serialization of the event over loopback TCP.
func BenchmarkTable1_RMI(b *testing.B) {
	vm, caller, callee, recv, _ := table1RPCEnv(b)
	svcClass, _ := callee.Loader().Lookup(workloads.ServiceClassName)
	dragM, _ := svcClass.LookupMethod("drag", "(Ljava/lang/Object;)I")
	srv, err := rpc.NewRMIServer(vm, callee, dragM, recv)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.NewRMIClient(vm, caller, srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	args := []heap.Value{dragEvent(b, vm, caller)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < table1Calls; c++ {
			if _, err := client.Call(args); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 1 ----------------------------------------------------------------

const fig1Iters = 100_000

func benchMicro(b *testing.B, mode core.Mode, kind workloads.MicroKind) {
	r, err := workloads.NewMicroRunner(mode, kind, fig1Iters)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/fig1Iters, "ns/operation")
}

func BenchmarkFig1_IntraCall_Baseline(b *testing.B) {
	benchMicro(b, core.ModeShared, workloads.MicroIntra)
}
func BenchmarkFig1_IntraCall_IJVM(b *testing.B) {
	benchMicro(b, core.ModeIsolated, workloads.MicroIntra)
}
func BenchmarkFig1_InterCall_Baseline(b *testing.B) {
	benchMicro(b, core.ModeShared, workloads.MicroInter)
}
func BenchmarkFig1_InterCall_IJVM(b *testing.B) {
	benchMicro(b, core.ModeIsolated, workloads.MicroInter)
}
func BenchmarkFig1_Alloc_Baseline(b *testing.B) { benchMicro(b, core.ModeShared, workloads.MicroAlloc) }
func BenchmarkFig1_Alloc_IJVM(b *testing.B)     { benchMicro(b, core.ModeIsolated, workloads.MicroAlloc) }
func BenchmarkFig1_StaticAccess_Baseline(b *testing.B) {
	benchMicro(b, core.ModeShared, workloads.MicroStatic)
}
func BenchmarkFig1_StaticAccess_IJVM(b *testing.B) {
	benchMicro(b, core.ModeIsolated, workloads.MicroStatic)
}

// --- Figure 2 -----------------------------------------------------------------

func benchSpec(b *testing.B, mode core.Mode, name string) {
	spec := workloads.SpecByName(name)
	if spec == nil {
		b.Fatalf("unknown spec workload %s", name)
	}
	r, err := workloads.NewSpecRunner(mode, *spec, spec.DefaultN)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_Compress_Baseline(b *testing.B)  { benchSpec(b, core.ModeShared, "compress") }
func BenchmarkFig2_Compress_IJVM(b *testing.B)      { benchSpec(b, core.ModeIsolated, "compress") }
func BenchmarkFig2_Jess_Baseline(b *testing.B)      { benchSpec(b, core.ModeShared, "jess") }
func BenchmarkFig2_Jess_IJVM(b *testing.B)          { benchSpec(b, core.ModeIsolated, "jess") }
func BenchmarkFig2_DB_Baseline(b *testing.B)        { benchSpec(b, core.ModeShared, "db") }
func BenchmarkFig2_DB_IJVM(b *testing.B)            { benchSpec(b, core.ModeIsolated, "db") }
func BenchmarkFig2_Javac_Baseline(b *testing.B)     { benchSpec(b, core.ModeShared, "javac") }
func BenchmarkFig2_Javac_IJVM(b *testing.B)         { benchSpec(b, core.ModeIsolated, "javac") }
func BenchmarkFig2_Mpegaudio_Baseline(b *testing.B) { benchSpec(b, core.ModeShared, "mpegaudio") }
func BenchmarkFig2_Mpegaudio_IJVM(b *testing.B)     { benchSpec(b, core.ModeIsolated, "mpegaudio") }
func BenchmarkFig2_Mtrt_Baseline(b *testing.B)      { benchSpec(b, core.ModeShared, "mtrt") }
func BenchmarkFig2_Mtrt_IJVM(b *testing.B)          { benchSpec(b, core.ModeIsolated, "mtrt") }
func BenchmarkFig2_Jack_Baseline(b *testing.B)      { benchSpec(b, core.ModeShared, "jack") }
func BenchmarkFig2_Jack_IJVM(b *testing.B)          { benchSpec(b, core.ModeIsolated, "jack") }

// --- Figure 3 -------------------------------------------------------------------

// benchFig3 boots an OSGi configuration and reports its live heap bytes;
// wall time measures startup cost, the heap-bytes metric is the figure's
// y-axis.
func benchFig3(b *testing.B, mode core.Mode, specs func() []osgi.BundleSpec) {
	var lastBytes int64
	for i := 0; i < b.N; i++ {
		vm := interp.NewVM(interp.Options{Mode: mode, HeapLimit: 256 << 20})
		if err := syslib.Install(vm); err != nil {
			b.Fatal(err)
		}
		fw, err := osgi.NewFramework(vm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := osgi.InstallAndStart(fw, specs()); err != nil {
			b.Fatal(err)
		}
		vm.CollectGarbage(nil)
		lastBytes = vm.MemoryFootprint()
	}
	b.ReportMetric(float64(lastBytes), "memory-bytes")
}

func BenchmarkFig3_Felix_Baseline(b *testing.B)   { benchFig3(b, core.ModeShared, osgi.FelixConfig) }
func BenchmarkFig3_Felix_IJVM(b *testing.B)       { benchFig3(b, core.ModeIsolated, osgi.FelixConfig) }
func BenchmarkFig3_Equinox_Baseline(b *testing.B) { benchFig3(b, core.ModeShared, osgi.EquinoxConfig) }
func BenchmarkFig3_Equinox_IJVM(b *testing.B)     { benchFig3(b, core.ModeIsolated, osgi.EquinoxConfig) }

// --- Ablations ---------------------------------------------------------------------

// BenchmarkAblationCPUAccounting_PerCall measures the inter-isolate call
// loop under the per-call timestamping strategy the paper rejected
// (§3.2): two clock reads plus an account update on every isolate switch.
func BenchmarkAblationCPUAccounting_PerCall(b *testing.B) {
	benchInterWithOptions(b, interp.Options{Mode: core.ModeIsolated, PerCallCPUAccounting: true})
}

// BenchmarkAblationCPUAccounting_Sampling is the adopted design.
func BenchmarkAblationCPUAccounting_Sampling(b *testing.B) {
	benchInterWithOptions(b, interp.Options{Mode: core.ModeIsolated})
}

func benchInterWithOptions(b *testing.B, opts interp.Options) {
	b.Helper()
	// Rebuild the MicroInter environment with custom options.
	vm := interp.NewVM(opts)
	if err := syslib.Install(vm); err != nil {
		b.Fatal(err)
	}
	calleeLoader := vm.Registry().NewLoader("callee")
	callee, err := vm.World().NewIsolate("callee", calleeLoader)
	if err != nil {
		b.Fatal(err)
	}
	if err := calleeLoader.DefineAll(workloads.ServiceClasses()); err != nil {
		b.Fatal(err)
	}
	callerLoader := vm.Registry().NewLoader("caller")
	caller, err := vm.World().NewIsolate("caller", callerLoader)
	if err != nil {
		b.Fatal(err)
	}
	callerLoader.AddDelegate(calleeLoader)
	if err := callerLoader.DefineAll(workloads.CallerClasses()); err != nil {
		b.Fatal(err)
	}
	svcClass, _ := calleeLoader.Lookup(workloads.ServiceClassName)
	makeM, _ := svcClass.LookupMethod("make", "()Ljava/lang/Object;")
	recv, th, err := vm.CallRoot(callee, makeM, nil, 1_000_000)
	if err != nil || th.Failure() != nil {
		b.Fatalf("make: %v", err)
	}
	callerClass, _ := callerLoader.Lookup(workloads.CallerClassName)
	bindM, _ := callerClass.LookupMethod("bind", "(Ljava/lang/Object;)V")
	if _, th, err := vm.CallRoot(caller, bindM, []heap.Value{recv}, 1_000_000); err != nil || th.Failure() != nil {
		b.Fatalf("bind: %v", err)
	}
	driver, _ := callerClass.LookupMethod(workloads.MicroDriverMethod, workloads.MicroDriverDesc)
	args := []heap.Value{heap.IntVal(fig1Iters)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, th, err := vm.CallRoot(caller, driver, args, 0); err != nil || th.Failure() != nil {
			b.Fatalf("run: %v", err)
		}
	}
}

// BenchmarkAblationGCAccounting measures a full collection over a large
// live graph with and without the per-isolate charging pass.
func BenchmarkAblationGCAccounting_On(b *testing.B)  { benchGCAblation(b, false) }
func BenchmarkAblationGCAccounting_Off(b *testing.B) { benchGCAblation(b, true) }

func benchGCAblation(b *testing.B, disable bool) {
	b.Helper()
	vm := interp.NewVM(interp.Options{
		Mode:                core.ModeIsolated,
		HeapLimit:           512 << 20,
		DisableAccountingGC: disable,
	})
	if err := syslib.Install(vm); err != nil {
		b.Fatal(err)
	}
	l := vm.Registry().NewLoader("main")
	iso, err := vm.World().NewIsolate("main", l)
	if err != nil {
		b.Fatal(err)
	}
	// Build a large pinned live graph: 200 arrays of 1000 objects each.
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		arr, err := vm.AllocArrayIn(nil, objClass, 1000, iso)
		if err != nil {
			b.Fatal(err)
		}
		for j := range arr.Elems {
			obj, err := vm.AllocObjectIn(nil, objClass, iso)
			if err != nil {
				b.Fatal(err)
			}
			arr.Elems[j] = heap.RefVal(obj)
		}
		vm.Pin(iso.ID(), arr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.CollectGarbage(nil)
	}
	b.ReportMetric(float64(vm.Heap().NumObjects()), "live-objects")
}

// BenchmarkAblationPreciseAccounting contrasts the adopted first-tracer
// accounting (one global trace, folded into the GC) with the rejected
// precise accounting (one full trace per isolate, shared objects charged
// to every sharer) over the same live graph — the §3.2 trade-off.
func BenchmarkAblationPreciseAccounting_FirstTracer(b *testing.B) {
	vm := buildSharedGraphVM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.CollectGarbage(nil)
	}
}

func BenchmarkAblationPreciseAccounting_Precise(b *testing.B) {
	vm := buildSharedGraphVM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.PreciseAccounting()
	}
}

// buildSharedGraphVM pins a graph with heavy cross-isolate sharing: four
// isolates, each holding private arrays plus references into a shared
// region.
func buildSharedGraphVM(b *testing.B) *interp.VM {
	b.Helper()
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 512 << 20})
	if err := syslib.Install(vm); err != nil {
		b.Fatal(err)
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		b.Fatal(err)
	}
	// Shared region: 50 arrays of 200 objects.
	var shared []*heap.Object
	mkIso := func(name string) *core.Isolate {
		iso, err := vm.NewIsolate(name)
		if err != nil {
			b.Fatal(err)
		}
		return iso
	}
	iso0 := mkIso("runtime")
	for i := 0; i < 50; i++ {
		arr, err := vm.AllocArrayIn(nil, objClass, 200, iso0)
		if err != nil {
			b.Fatal(err)
		}
		for j := range arr.Elems {
			o, err := vm.AllocObjectIn(nil, objClass, iso0)
			if err != nil {
				b.Fatal(err)
			}
			arr.Elems[j] = heap.RefVal(o)
		}
		shared = append(shared, arr)
	}
	for k := 0; k < 4; k++ {
		iso := mkIso("bundle" + string(rune('A'+k)))
		for i := 0; i < 25; i++ {
			priv, err := vm.AllocArrayIn(nil, objClass, 100, iso)
			if err != nil {
				b.Fatal(err)
			}
			for j := range priv.Elems {
				if j%2 == 0 {
					priv.Elems[j] = heap.RefVal(shared[(i+j)%len(shared)])
				} else {
					o, err := vm.AllocObjectIn(nil, objClass, iso)
					if err != nil {
						b.Fatal(err)
					}
					priv.Elems[j] = heap.RefVal(o)
				}
			}
			vm.Pin(iso.ID(), priv)
		}
	}
	return vm
}

// BenchmarkAblationIsolateSwitch contrasts the same call loop with and
// without an isolate boundary (thread migration cost in isolation).
func BenchmarkAblationIsolateSwitch_SameIsolate(b *testing.B) {
	benchMicro(b, core.ModeIsolated, workloads.MicroIntra)
}

func BenchmarkAblationIsolateSwitch_CrossIsolate(b *testing.B) {
	benchMicro(b, core.ModeIsolated, workloads.MicroInter)
}

// BenchmarkAblationTCM contrasts static access through the single shared
// mirror (baseline) with the per-isolate task-class-mirror indirection.
func BenchmarkAblationTCM_SharedMirror(b *testing.B) {
	benchMicro(b, core.ModeShared, workloads.MicroStatic)
}

func BenchmarkAblationTCM_TaskClassMirror(b *testing.B) {
	benchMicro(b, core.ModeIsolated, workloads.MicroStatic)
}

// --- Concurrent isolate scheduler ---------------------------------------

// concurrencyBenchIsolates/Iters size the scheduler benchmark: N
// independent bundles, each spinning a fixed loop, so the concurrent
// speedup is bounded only by scheduler overhead and worker count.
const (
	concurrencyBenchIsolates = 8
	concurrencyBenchIters    = 200_000
)

// spinBenchClass builds the per-isolate compute loop.
func spinBenchClass(name string) *classfile.Class {
	return classfile.NewClass(name).
		Method("run", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(1).IReturn()
		}).MustBuild()
}

// benchSchedulerRun measures aggregate instruction throughput of the
// same multi-bundle workload under three engines: the baseline shared
// VM's cooperative loop, I-JVM's cooperative loop, and I-JVM on the
// concurrent isolate scheduler with a worker pool. Compare the
// Minstr/s metric across the three.
func benchSchedulerRun(b *testing.B, mode core.Mode, workers int) {
	b.Helper()
	var instrs int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		vm, err := spinVM(mode)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var res interp.RunResult
		if workers > 0 {
			res = sched.Run(vm, workers, 0)
		} else {
			res = vm.Run(0)
		}
		if !res.AllDone {
			b.Fatalf("run did not finish: %+v", res)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

// spinVM builds the scheduler-benchmark VM: concurrencyBenchIsolates
// bundles, each with one spawned thread spinning concurrencyBenchIters
// iterations.
func spinVM(mode core.Mode) (*interp.VM, error) {
	vm := interp.NewVM(interp.Options{Mode: mode})
	syslib.MustInstall(vm)
	for k := 0; k < concurrencyBenchIsolates; k++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("bundle%d", k))
		if err != nil {
			// Shared mode has a single isolate; reuse it.
			iso = vm.World().Isolate0()
			if iso == nil {
				return nil, err
			}
		}
		cn := fmt.Sprintf("bench/Spin%d", k)
		loader := iso.Loader()
		if mode == core.ModeShared {
			loader = vm.Registry().NewLoader(fmt.Sprintf("loader%d", k))
		}
		if err := loader.Define(spinBenchClass(cn)); err != nil {
			return nil, err
		}
		c, _ := loader.Lookup(cn)
		m, _ := c.LookupMethod("run", "(I)I")
		if _, err := vm.SpawnThread(fmt.Sprintf("spin%d", k), iso, m,
			[]heap.Value{heap.IntVal(concurrencyBenchIters)}); err != nil {
			return nil, err
		}
	}
	return vm, nil
}

// --- Invoke microbenchmarks (virtual dispatch) ----------------------------
//
// One hot invokevirtual site dispatching over k receiver classes through
// the link-time vtables: k=1, 4 and 8 must cost the same, since the
// handler loads a table slot whatever the site has seen (bench/ reports
// the same three sites as interp.invoke_{mono,poly4,mega8}_ns).

const invokeBenchInner = 10_000

// invokeBenchClasses builds Base plus k subclasses overriding f(I)I and
// a driver whose loop hits one call site with receiver i & (k-1).
func invokeBenchClasses(k int) []*classfile.Class {
	ctor := func(super string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
		}
	}
	classes := []*classfile.Class{classfile.NewClass("ib/Base").
		Method(classfile.InitName, "()V", 0, ctor("java/lang/Object")).
		Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).Const(1).IAdd().IReturn()
		}).MustBuild()}
	for i := 0; i < k; i++ {
		add := int64(i + 1)
		classes = append(classes, classfile.NewClass(fmt.Sprintf("ib/Impl%d", i)).
			Super("ib/Base").
			Method(classfile.InitName, "()V", 0, ctor("ib/Base")).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(add).IAdd().IReturn()
			}).MustBuild())
	}
	driver := classfile.NewClass("ib/Driver").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(int64(k)).NewArray("").AStore(1)
			for i := 0; i < k; i++ {
				name := fmt.Sprintf("ib/Impl%d", i)
				a.ALoad(1).Const(int64(i))
				a.New(name).Dup().InvokeSpecial(name, classfile.InitName, "()V")
				a.ArrayStore()
			}
			a.Const(0).IStore(2) // acc
			a.Const(0).IStore(3) // i
			a.Label("loop").ILoad(3).ILoad(0).IfICmpGe("done")
			a.ALoad(1).ILoad(3).Const(int64(k - 1)).IAnd().ArrayLoad()
			a.ILoad(2).InvokeVirtual("ib/Base", "f", "(I)I").IStore(2)
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(2).IReturn()
		}).MustBuild()
	return append(classes, driver)
}

// invokeBenchVM builds the call-heavy benchmark VM.
func invokeBenchVM(k int) (*interp.VM, *core.Isolate, *classfile.Method, error) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		return nil, nil, nil, err
	}
	if err := iso.Loader().DefineAll(invokeBenchClasses(k)); err != nil {
		return nil, nil, nil, err
	}
	c, err := iso.Loader().Lookup("ib/Driver")
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		return nil, nil, nil, err
	}
	return vm, iso, m, nil
}

func benchInvoke(b *testing.B, k int) {
	b.Helper()
	vm, iso, m, err := invokeBenchVM(k)
	if err != nil {
		b.Fatal(err)
	}
	args := []heap.Value{heap.IntVal(invokeBenchInner)}
	if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
		b.Fatalf("warmup: %v / %v", err, th.FailureString())
	}
	start := vm.TotalInstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
			b.Fatalf("run: %v / %v", err, th.FailureString())
		}
	}
	instrs := vm.TotalInstructions() - start
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/invokeBenchInner, "ns/call")
}

func BenchmarkInvoke_Monomorphic(b *testing.B)  { benchInvoke(b, 1) }
func BenchmarkInvoke_Polymorphic4(b *testing.B) { benchInvoke(b, 4) }
func BenchmarkInvoke_Megamorphic8(b *testing.B) { benchInvoke(b, 8) }

// --- Allocation microbenchmarks (sharded memory subsystem) ----------------
//
// BenchmarkAlloc_* measures the heap admission path itself: N goroutines
// allocating small objects as fast as they can. The contended-global
// variant funnels every goroutine through the Heap-level entry points —
// one mutex-guarded domain plus direct atomic statistic charges, the
// shape of the pre-sharding allocator and still the host path today. The
// shard-local variant gives each goroutine its own allocation domain and
// a core.ByteBatch, the discipline the execution engines use: admission
// is one atomic reservation CAS, the object list append and the byte
// accounting are shard-private. On multi-core hosts the contended-global
// mutex additionally serializes truly parallel allocators, so the
// shard-local advantage grows with cores.

const allocBenchGoroutines = 6

// allocBenchClass builds a minimal linked class for heap-level
// allocation (no VM required).
func allocBenchClass() *classfile.Class {
	c := classfile.NewClass("bench/AllocT").MustBuild()
	c.NumFieldSlots = 0
	c.Linked = true
	return c
}

// allocBenchPerG is one goroutine's share of a measured batch: each
// batch allocates 6 x 10k small objects against a fresh allocator, so
// the live set stays bounded and the numbers measure the admission path
// rather than host-GC churn (the host GC runs off-timer between
// batches).
const allocBenchPerG = 10_000

// seedAllocator reproduces the pre-sharding admission discipline for the
// before/after curve: one global mutex guarding the used-bytes check,
// the object list, and the per-isolate statistics map — the exact shape
// of the seed heap's admit (the removed Heap.mu). It allocates the same
// heap.Object structs as the sharded path, so the host-malloc floor is
// identical and the ratio isolates the admission discipline.
type seedAllocator struct {
	mu      sync.Mutex
	limit   int64
	used    int64
	objects []*heap.Object
	allocs  map[heap.IsolateID]*heap.AllocStats
}

func (h *seedAllocator) allocObject(c *classfile.Class, iso heap.IsolateID) (*heap.Object, error) {
	size := int64(heap.ObjectHeaderBytes)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.used+size > h.limit {
		return nil, heap.ErrOutOfMemory
	}
	o := &heap.Object{Class: c}
	h.used += size
	h.objects = append(h.objects, o)
	s := h.allocs[iso]
	if s == nil {
		s = &heap.AllocStats{}
		h.allocs[iso] = s
	}
	s.Objects++
	s.Bytes += size
	return o, nil
}

// sampleAll mirrors one detector sweep against the seed heap: Used,
// NumObjects and every isolate's AllocStatsFor, all behind the same
// global mutex that admission takes (the seed accessors each locked
// h.mu; Snapshots() made one such sweep per watchdog tick).
func (h *seedAllocator) sampleAll(isolates int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	sink := h.used + int64(len(h.objects))
	for iso := 0; iso < isolates; iso++ {
		if st := h.allocs[heap.IsolateID(iso)]; st != nil {
			sink += st.Bytes
		}
	}
	return sink
}

// allocBenchPollers is the number of monitoring goroutines sampling the
// usage metrics while the allocators run — the paper's admin plane (the
// watchdogs of internal/limits and the attack detectors poll
// Used/NumObjects/AllocStatsFor continuously). Under the seed
// discipline those reads took the allocator's global mutex; the sharded
// heap serves them from atomic aggregates.
const allocBenchPollers = 4

func runAllocBatch(c *classfile.Class, shardLocal bool) error {
	var h *heap.Heap
	var seed *seedAllocator
	if shardLocal {
		h = heap.New(1 << 40) // never exhausts: measures admission, not GC
	} else {
		seed = &seedAllocator{limit: 1 << 40, allocs: make(map[heap.IsolateID]*heap.AllocStats)}
	}
	done := make(chan struct{})
	defer close(done)
	for p := 0; p < allocBenchPollers; p++ {
		go func() {
			var sink int64
			for {
				select {
				case <-done:
					return
				default:
				}
				if shardLocal {
					sink += h.Used() + int64(h.NumObjects())
					for iso := 0; iso < allocBenchGoroutines; iso++ {
						sink += h.AllocStatsFor(heap.IsolateID(iso)).Bytes
					}
				} else {
					sink += seed.sampleAll(allocBenchGoroutines)
				}
			}
		}()
	}
	var wg sync.WaitGroup
	errs := make([]error, allocBenchGoroutines)
	for g := 0; g < allocBenchGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iso := heap.IsolateID(g)
			if shardLocal {
				dom := h.NewDomain()
				var batch core.ByteBatch
				counters := h.CountersFor(iso)
				for i := 0; i < allocBenchPerG; i++ {
					obj, err := dom.AllocObject(c, iso)
					if err != nil {
						errs[g] = err
						return
					}
					batch.Note(counters, obj.Size(), false)
				}
				batch.Flush()
				return
			}
			for i := 0; i < allocBenchPerG; i++ {
				if _, err := seed.allocObject(c, iso); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func benchAlloc(b *testing.B, shardLocal bool) {
	b.Helper()
	c := allocBenchClass()
	// Run the allocator goroutines on their own scheduler threads even on
	// a 1-CPU host: a mutex holder preempted by the OS mid-critical-
	// section stalls every other allocator until it runs again (the lock
	// convoy the sharded design removes), while the lock-free reservation
	// path degrades gracefully. This is the contention profile of a
	// multi-tenant VM, which a single-threaded benchmark loop would hide.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(allocBenchGoroutines))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runAllocBatch(c, shardLocal); err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
		}
	}
	total := float64(b.N) * allocBenchPerG * allocBenchGoroutines
	b.ReportMetric(total/b.Elapsed().Seconds()/1e6, "Mallocs/s")
}

func BenchmarkAlloc_GlobalLocked(b *testing.B) { benchAlloc(b, false) }
func BenchmarkAlloc_ShardLocal(b *testing.B)   { benchAlloc(b, true) }

// --- Field-access microbenchmarks (prepared field-slot caches) ------------
//
// One hot loop alternating putfield/getfield on a two-field object. The
// prepared engine serves both from the per-site resolved-slot caches
// (bytecode.FieldSlot: one atomic int32 load, no pool-entry chase); the
// unprepared variant is the seed-style switch path resolving through the
// pool entry's ResolvedField cache each execution.

const fieldBenchInner = 10_000

func fieldBenchClasses() []*classfile.Class {
	ctor := func(a *bytecode.Assembler) {
		a.ALoad(0).InvokeSpecial("java/lang/Object", classfile.InitName, "()V").Return()
	}
	holder := classfile.NewClass("fb/Holder").
		Field("x", classfile.KindInt).
		Field("y", classfile.KindInt).
		Method(classfile.InitName, "()V", 0, ctor).MustBuild()
	driver := classfile.NewClass("fb/Driver").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.New("fb/Holder").Dup().
				InvokeSpecial("fb/Holder", classfile.InitName, "()V").AStore(1)
			a.Const(0).IStore(2) // i
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ALoad(1).ILoad(2).PutField("fb/Holder", "x")
			a.ALoad(1).ALoad(1).GetField("fb/Holder", "x").Const(1).IAdd().PutField("fb/Holder", "y")
			a.ALoad(1).GetField("fb/Holder", "y").Pop()
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ALoad(1).GetField("fb/Holder", "x").IReturn()
		}).MustBuild()
	return []*classfile.Class{holder, driver}
}

func fieldBenchVM(disablePrepare bool) (*interp.VM, *core.Isolate, *classfile.Method, error) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, DisablePrepare: disablePrepare})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		return nil, nil, nil, err
	}
	if err := iso.Loader().DefineAll(fieldBenchClasses()); err != nil {
		return nil, nil, nil, err
	}
	c, err := iso.Loader().Lookup("fb/Driver")
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		return nil, nil, nil, err
	}
	return vm, iso, m, nil
}

func benchField(b *testing.B, disablePrepare bool) {
	b.Helper()
	vm, iso, m, err := fieldBenchVM(disablePrepare)
	if err != nil {
		b.Fatal(err)
	}
	args := []heap.Value{heap.IntVal(int64(fieldBenchInner))}
	if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
		b.Fatalf("warmup: %v / %v", err, th.FailureString())
	}
	start := vm.TotalInstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
			b.Fatalf("run: %v / %v", err, th.FailureString())
		}
	}
	instrs := vm.TotalInstructions() - start
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

func BenchmarkField_GetPut(b *testing.B)            { benchField(b, false) }
func BenchmarkField_GetPut_Unprepared(b *testing.B) { benchField(b, true) }

// --- Tier microbenchmarks (quickened table vs closure tier) ---------------
//
// One hot arithmetic loop measured across the three ways to execute it:
//
//	seed     — unquickened checked switch (DisablePrepare)
//	prepared — quickened table dispatch, closure tier off
//	closure  — closure-threaded hot tier (promoted on first call)
//
// The closure compiler folds the loop body's loads, constants and stores
// into the micros of the ops and the compare that consume them — five
// micros for 17 bytecodes — and the iinc+goto final chains back into the
// loop head, so an engine step retires many iterations. Minstr/s counts
// retired bytecodes (a folded micro retires the same count as the seed —
// the oracle proves it), so the metric is directly comparable across
// tiers.

const tierBenchInner = 10_000

// tierBenchConfig selects the dispatch tier of one run.
type tierBenchConfig int

const (
	tierSeed tierBenchConfig = iota
	tierPrepared
	tierClosure
)

func (c tierBenchConfig) options() interp.Options {
	o := interp.Options{Mode: core.ModeIsolated}
	switch c {
	case tierSeed:
		o.DisablePrepare = true
	case tierPrepared:
		o.TierPromoteThreshold = -1
	case tierClosure:
		o.TierPromoteThreshold = 1
	}
	return o
}

func tierBenchClasses() []*classfile.Class {
	driver := classfile.NewClass("tb/Driver").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// Locals: 0 n, 1 acc, 2 i.
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ILoad(1).Const(3).IAdd().IStore(1)
			a.ILoad(1).ILoad(2).IXor().IStore(1)
			a.ILoad(1).Const(5).IMul().IStore(1)
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()
	return []*classfile.Class{driver}
}

func tierBenchVM(cfg tierBenchConfig) (*interp.VM, *core.Isolate, *classfile.Method, error) {
	vm := interp.NewVM(cfg.options())
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		return nil, nil, nil, err
	}
	if err := iso.Loader().DefineAll(tierBenchClasses()); err != nil {
		return nil, nil, nil, err
	}
	c, err := iso.Loader().Lookup("tb/Driver")
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		return nil, nil, nil, err
	}
	return vm, iso, m, nil
}

func benchTier(b *testing.B, cfg tierBenchConfig) {
	b.Helper()
	vm, iso, m, err := tierBenchVM(cfg)
	if err != nil {
		b.Fatal(err)
	}
	args := []heap.Value{heap.IntVal(int64(tierBenchInner))}
	if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
		b.Fatalf("warmup: %v / %v", err, th.FailureString())
	}
	start := vm.TotalInstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
			b.Fatalf("run: %v / %v", err, th.FailureString())
		}
	}
	instrs := vm.TotalInstructions() - start
	b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
}

func BenchmarkTier_Seed(b *testing.B)     { benchTier(b, tierSeed) }
func BenchmarkTier_Prepared(b *testing.B) { benchTier(b, tierPrepared) }
func BenchmarkTier_Closure(b *testing.B)  { benchTier(b, tierClosure) }

func BenchmarkScheduler_Shared_Sequential(b *testing.B) {
	benchSchedulerRun(b, core.ModeShared, 0)
}
func BenchmarkScheduler_IJVM_Sequential(b *testing.B) {
	benchSchedulerRun(b, core.ModeIsolated, 0)
}
func BenchmarkScheduler_IJVM_Concurrent2(b *testing.B) {
	benchSchedulerRun(b, core.ModeIsolated, 2)
}
func BenchmarkScheduler_IJVM_Concurrent4(b *testing.B) {
	benchSchedulerRun(b, core.ModeIsolated, 4)
}
func BenchmarkScheduler_IJVM_Concurrent8(b *testing.B) {
	benchSchedulerRun(b, core.ModeIsolated, 8)
}

// --- GC microbenchmarks (incremental vs forced-STW) -----------------------
//
// A pinned live graph of gcBenchObjects objects (a spine array of small
// linked pairs) is collected repeatedly. BenchmarkGC_FullSTWPause is the
// reference collector's pause: one monolithic mark+sweep over the whole
// graph. BenchmarkGC_IncrementalTerminalPause opens a cycle, drives the
// mark to completion through MarkQuantum strides (outside the timed
// region — that work runs concurrently with mutators in production), and
// times ONLY the terminal stop-the-world phase (root re-scan, residual
// drain, finalizer pass, sweep). The acceptance bar for the incremental
// collector is that the terminal pause is strictly shorter than the
// full-STW pause on the same heap.
//
// BenchmarkGC_Mutator{Idle,DuringMark} measure guest throughput of a
// store-heavy loop with no cycle open vs with an open cycle whose mark
// strides run at every quantum boundary — mutator progress during
// marking (the whole point of the incremental design) plus the SATB
// barrier tax on reference stores.

const gcBenchObjects = 20_000

// gcBenchVM builds an Isolated VM holding a pinned live graph, with
// background cycles disabled so the benchmark drives phases explicitly.
func gcBenchVM() (*interp.VM, error) {
	vm := interp.NewVM(interp.Options{
		Mode:               core.ModeIsolated,
		HeapLimit:          64 << 20,
		GCThresholdPercent: -1,
	})
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	iso, err := vm.NewIsolate("gcbench")
	if err != nil {
		return nil, err
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return nil, err
	}
	spine, err := vm.AllocArrayIn(nil, objClass, gcBenchObjects, iso)
	if err != nil {
		return nil, err
	}
	for i := 0; i < gcBenchObjects; i++ {
		o, err := vm.AllocObjectIn(nil, objClass, iso)
		if err != nil {
			return nil, err
		}
		spine.Elems[i] = heap.RefVal(o)
	}
	vm.Pin(iso.ID(), spine)
	return vm, nil
}

func BenchmarkGC_FullSTWPause(b *testing.B) {
	vm, err := gcBenchVM()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.CollectGarbage(nil)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/pause")
}

func BenchmarkGC_IncrementalTerminalPause(b *testing.B) {
	vm, err := gcBenchVM()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if !vm.StartIncrementalCycle() {
			b.Fatal("cycle did not open")
		}
		for !vm.GCMarkStep(1024) {
		}
		b.StartTimer()
		if _, ok := vm.FinishIncrementalCycle(); !ok {
			b.Fatal("no cycle to finish")
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/pause")
}

// gcMutatorClasses builds the store-heavy mutator loop: run(spine, n)
// overwrites spine slots and object fields per iteration.
func gcMutatorClasses() []*classfile.Class {
	main := classfile.NewClass("gcmut/Main").
		Method("run", "(Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(2)
			a.Const(0).IStore(3)
			a.Label("loop").ILoad(2).ILoad(1).IfICmpGe("done")
			// Overwrite one spine slot with another (aastore barrier).
			a.ALoad(0).ILoad(2).Const(64).IRem().
				ALoad(0).ILoad(2).Const(63).IAnd().ArrayLoad().
				ArrayStore()
			a.ILoad(3).Const(7).IAdd().IStore(3)
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(3).IReturn()
		}).MustBuild()
	return []*classfile.Class{main}
}

// measureGCMutator returns Minstr/s of the store loop; when marking is
// true an incremental cycle with a tiny stride is open for the whole
// run, so every quantum performs mark work and every reference store
// pays the armed barrier.
func measureGCMutator(marking bool) (float64, error) {
	vm := interp.NewVM(interp.Options{
		Mode:               core.ModeIsolated,
		HeapLimit:          64 << 20,
		GCThresholdPercent: -1,
		GCMarkStride:       1, // keep the cycle open across the whole run
	})
	if err := syslib.Install(vm); err != nil {
		return 0, err
	}
	iso, err := vm.NewIsolate("gcmut")
	if err != nil {
		return 0, err
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return 0, err
	}
	spine, err := vm.AllocArrayIn(nil, objClass, gcBenchObjects, iso)
	if err != nil {
		return 0, err
	}
	for i := 0; i < gcBenchObjects; i++ {
		o, err := vm.AllocObjectIn(nil, objClass, iso)
		if err != nil {
			return 0, err
		}
		spine.Elems[i] = heap.RefVal(o)
	}
	vm.Pin(iso.ID(), spine)
	if err := iso.Loader().DefineAll(gcMutatorClasses()); err != nil {
		return 0, err
	}
	c, err := iso.Loader().Lookup("gcmut/Main")
	if err != nil {
		return 0, err
	}
	m, err := c.LookupMethod("run", "(Ljava/lang/Object;I)I")
	if err != nil {
		return 0, err
	}
	args := []heap.Value{heap.RefVal(spine), heap.IntVal(60_000)}
	if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
		return 0, fmt.Errorf("warmup: %v / %v", err, th.FailureString())
	}
	if marking && !vm.StartIncrementalCycle() {
		return 0, fmt.Errorf("cycle did not open")
	}
	start := vm.TotalInstructions()
	t0 := time.Now()
	const rounds = 6
	for i := 0; i < rounds; i++ {
		if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
			return 0, fmt.Errorf("run: %v / %v", err, th.FailureString())
		}
	}
	elapsed := time.Since(t0)
	if marking {
		if !vm.Heap().CycleOpen() {
			return 0, fmt.Errorf("cycle finished mid-run; raise gcBenchObjects")
		}
		vm.FinishIncrementalCycle()
	}
	return float64(vm.TotalInstructions()-start) / 1e6 / elapsed.Seconds(), nil
}

func benchGCMutator(b *testing.B, marking bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		v, err := measureGCMutator(marking)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, "Minstr/s")
	}
}

func BenchmarkGC_MutatorIdle(b *testing.B)       { benchGCMutator(b, false) }
func BenchmarkGC_MutatorDuringMark(b *testing.B) { benchGCMutator(b, true) }

// --- Intern microbenchmarks (lock-free string-pool read path) -------------
//
// The steady state of Ldc on an interned literal is one pool lookup per
// execution; since the copy-on-write rework it is an atomic pointer
// load plus a map read with no lock. BenchmarkIntern_LdcHot drives a
// guest loop of 8 Ldc sites; BenchmarkIntern_ReadParallel hammers the
// host-side read path from parallel goroutines (the migrated-thread
// pattern the mutex used to serialize).

func internBenchVM() (*interp.VM, *core.Isolate, *classfile.Method, error) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	if err := syslib.Install(vm); err != nil {
		return nil, nil, nil, err
	}
	iso, err := vm.NewIsolate("intern")
	if err != nil {
		return nil, nil, nil, err
	}
	main := classfile.NewClass("in/Main").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			for k := 0; k < 8; k++ {
				a.Str(fmt.Sprintf("lit-%d", k)).Pop()
			}
			a.IInc(1, 1).Goto("loop")
			a.Label("done").ILoad(2).IReturn()
		}).MustBuild()
	if err := iso.Loader().DefineAll([]*classfile.Class{main}); err != nil {
		return nil, nil, nil, err
	}
	c, err := iso.Loader().Lookup("in/Main")
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		return nil, nil, nil, err
	}
	return vm, iso, m, nil
}

// measureInternThroughput returns Minstr/s of the Ldc-heavy loop.
func measureInternThroughput() (float64, error) {
	vm, iso, m, err := internBenchVM()
	if err != nil {
		return 0, err
	}
	args := []heap.Value{heap.IntVal(20_000)}
	if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
		return 0, fmt.Errorf("warmup: %v / %v", err, th.FailureString())
	}
	const rounds = 20
	start := vm.TotalInstructions()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if _, th, err := vm.CallRoot(iso, m, args, 0); err != nil || th.Failure() != nil {
			return 0, fmt.Errorf("run: %v / %v", err, th.FailureString())
		}
	}
	elapsed := time.Since(t0)
	return float64(vm.TotalInstructions()-start) / 1e6 / elapsed.Seconds(), nil
}

func BenchmarkIntern_LdcHot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := measureInternThroughput()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, "Minstr/s")
	}
}

func BenchmarkIntern_ReadParallel(b *testing.B) {
	vm, iso, m, err := internBenchVM()
	if err != nil {
		b.Fatal(err)
	}
	// Populate the pool through one guest run.
	if _, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil {
		b.Fatalf("populate: %v / %v", err, th.FailureString())
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			if _, ok := iso.InternedString(fmt.Sprintf("lit-%d", k&7)); !ok {
				b.Error("interned literal missing")
				return
			}
			k++
		}
	})
}

// --- RPC messaging-layer benchmarks ---------------------------------------
//
// BenchmarkRPC_* measures the inter-isolate messaging layer itself on
// the Table-1 drag/inc shape: rpcBenchCallers concurrent client
// goroutines issuing rpcBenchCalls calls total per measured op.
//
//   - Serial: the seed architecture (SerialLink) — one server goroutine,
//     a whole-link mutex, two channel handoffs per call. Concurrent
//     callers convoy on the mutex.
//   - Sync: the async layer driven synchronously (Call = CallAsync +
//     Wait); callers share the link without convoying, but each call
//     still round-trips before the next is admitted.
//   - Pipelined: windowed CallAsync against the QueueDepth credit
//     bucket; workers batch-claim queued requests, so handoff and
//     wakeup costs amortize across the window.
//   - DeepCopyPayload / ZeroCopyFrozen: the pipelined shape carrying an
//     8-slot event array per call, deep-copied vs frozen-and-shared.
//
// NOTE: this is a 1-CPU container — copy/execute overlap contributes
// nothing here, so the pipelined speedup is purely amortized handoff;
// multi-core hosts add overlap of off-lock copies with engine slices.

const (
	rpcBenchCalls   = 200
	rpcBenchCallers = 4
)

// rpcBenchMethod resolves a Service method in the table1RPCEnv callee.
func rpcBenchMethod(b testing.TB, callee *core.Isolate, name, desc string) *classfile.Method {
	b.Helper()
	svcClass, err := callee.Loader().Lookup(workloads.ServiceClassName)
	if err != nil {
		b.Fatal(err)
	}
	m, err := svcClass.LookupMethod(name, desc)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func reportRPCRate(b *testing.B) {
	b.ReportMetric(float64(b.N)*rpcBenchCalls/b.Elapsed().Seconds(), "calls/s")
}

// BenchmarkRPC_Serial is the seed baseline: concurrent callers convoy
// on the whole-link mutex.
func BenchmarkRPC_Serial(b *testing.B) {
	vm, caller, callee, recv, _ := table1RPCEnv(b)
	m := rpcBenchMethod(b, callee, "fstatic", "(I)I")
	link := rpc.NewSerialLink(vm, caller, callee, m, recv)
	defer link.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < rpcBenchCallers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < rpcBenchCalls/rpcBenchCallers; c++ {
					if _, err := link.Call([]heap.Value{heap.IntVal(int64(c))}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	reportRPCRate(b)
}

// rpcBenchLink builds a hub-backed link for the async benchmarks.
func rpcBenchLink(b testing.TB, opts rpc.LinkOptions, method, desc string) (*rpc.Hub, *rpc.Link) {
	b.Helper()
	vm, caller, callee, recv, _ := table1RPCEnv(b)
	m := rpcBenchMethod(b, callee, method, desc)
	hub := rpc.NewHub(vm)
	link, err := hub.NewLink(caller, callee, m, recv, opts)
	if err != nil {
		b.Fatal(err)
	}
	return hub, link
}

// BenchmarkRPC_Sync drives the async layer with blocking calls.
func BenchmarkRPC_Sync(b *testing.B) {
	hub, link := rpcBenchLink(b, rpc.LinkOptions{}, "fstatic", "(I)I")
	defer hub.Close()
	defer link.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < rpcBenchCallers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := 0; c < rpcBenchCalls/rpcBenchCallers; c++ {
					if _, err := link.Call([]heap.Value{heap.IntVal(int64(c))}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	reportRPCRate(b)
}

// benchRPCPipelined submits the full window asynchronously and drains
// futures as credits run out.
func benchRPCPipelined(b *testing.B, opts rpc.LinkOptions, method, desc string, args []heap.Value) {
	hub, link := rpcBenchLink(b, opts, method, desc)
	defer hub.Close()
	defer link.Close()
	callArgs := args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < rpcBenchCallers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				futs := make([]*rpc.Future, 0, rpcBenchCalls/rpcBenchCallers)
				for c := 0; c < rpcBenchCalls/rpcBenchCallers; c++ {
					a := callArgs
					if a == nil {
						a = []heap.Value{heap.IntVal(int64(c))}
					}
					fut, err := link.CallAsync(a)
					if err == rpc.ErrSaturated {
						// Window full: fall back to one blocking call,
						// which waits for a credit.
						if _, err := link.Call(a); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					if err != nil {
						b.Error(err)
						return
					}
					futs = append(futs, fut)
				}
				for _, fut := range futs {
					if _, err := fut.Wait(); err != nil {
						b.Error(err)
					}
					fut.Release()
				}
			}(g)
		}
		wg.Wait()
	}
	reportRPCRate(b)
}

func BenchmarkRPC_Pipelined(b *testing.B) {
	benchRPCPipelined(b, rpc.LinkOptions{QueueDepth: 64}, "fstatic", "(I)I", nil)
}

// BenchmarkRPC_DeepCopyPayload carries the Table-1 drag event array,
// deep-copied into the callee on every call.
func BenchmarkRPC_DeepCopyPayload(b *testing.B) {
	benchRPCPipelinedWithArgs(b, rpc.LinkOptions{QueueDepth: 64}, false)
}

// benchRPCPipelinedWithArgs builds the drag payload in the caller
// isolate and runs the pipelined loop; frozen selects the zero-copy
// sharing path.
func benchRPCPipelinedWithArgs(b *testing.B, opts rpc.LinkOptions, frozen bool) {
	b.Helper()
	vm, caller, callee, recv, _ := table1RPCEnv(b)
	m := rpcBenchMethod(b, callee, "drag", "(Ljava/lang/Object;)I")
	hub := rpc.NewHub(vm)
	if frozen {
		opts.ZeroCopy = true
	}
	link, err := hub.NewLink(caller, callee, m, recv, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()
	defer link.Close()
	ev := dragEvent(b, vm, caller)
	if frozen {
		// Freeze validates the whole graph (strings are immutable
		// already and need no marking).
		if err := heap.Freeze(ev.R); err != nil {
			b.Fatal(err)
		}
	}
	args := []heap.Value{ev}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < rpcBenchCallers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				futs := make([]*rpc.Future, 0, rpcBenchCalls/rpcBenchCallers)
				for c := 0; c < rpcBenchCalls/rpcBenchCallers; c++ {
					fut, err := link.CallAsync(args)
					if err == rpc.ErrSaturated {
						if _, err := link.Call(args); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					if err != nil {
						b.Error(err)
						return
					}
					futs = append(futs, fut)
				}
				for _, fut := range futs {
					if _, err := fut.Wait(); err != nil {
						b.Error(err)
					}
					fut.Release()
				}
			}()
		}
		wg.Wait()
	}
	reportRPCRate(b)
}

// BenchmarkRPC_ZeroCopyFrozen shares the frozen event array across the
// boundary instead of copying it.
func BenchmarkRPC_ZeroCopyFrozen(b *testing.B) {
	benchRPCPipelinedWithArgs(b, rpc.LinkOptions{QueueDepth: 64}, true)
}

// BenchmarkRPC_Mesh runs the microservice-mesh scenario once per op:
// fan-out over the service registry, aggregation, tenant churn.
func BenchmarkRPC_Mesh(b *testing.B) {
	var last *mesh.Result
	for i := 0; i < b.N; i++ {
		res, err := mesh.Run(mesh.Config{
			Services: 3, Frontends: 3, Requests: 20, QueueDepth: 16, ChurnEvery: 25,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Throughput, "legs/s")
		b.ReportMetric(float64(last.P99.Nanoseconds())/1e3, "p99-us")
	}
}

// --- Scheduler QoS ----------------------------------------------------------

// benchQoS runs one leg of the adversarial SLO harness per iteration
// (small sizes — this is the CI smoke of the cmd/benchtable -qos table)
// and reports the virtual-time tail latency and goodput of the last leg.
// One worker keeps the virtual clock a pure function of scheduler
// interleaving, so the p99 metric is comparable across hosts.
func benchQoS(b *testing.B, roundRobin bool) {
	var last *workloads.SLOResult
	for i := 0; i < b.N; i++ {
		res, err := workloads.RunSLO(workloads.SLOConfig{
			Tenants:           2,
			RequestsPerTenant: 5,
			WorkIters:         2000,
			Workers:           1,
			Attackers:         []workloads.AttackerKind{workloads.AttackSpin, workloads.AttackAllocFlood},
			RoundRobin:        roundRobin,
			Governed:          !roundRobin,
			Governor:          &sched.GovernorConfig{WindowInstrs: 131072},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("SLO leg lost requests: %s", res)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.P99)/1000, "p99-vms")
		b.ReportMetric(last.Goodput, "req/s")
	}
}

func BenchmarkQoS_SLOProportionalGoverned(b *testing.B) { benchQoS(b, false) }
func BenchmarkQoS_SLORoundRobin(b *testing.B)           { benchQoS(b, true) }

// --- Gateway serving (warmed-isolate snapshots) ------------------------------

// benchServe runs one gateway serving run per op: sequential tenant
// sessions provisioned cold (class load + heavy <clinit>), cloned from a
// warmed snapshot, or recycled through the isolate free pool, with
// kill/sweep churn between sessions.
func benchServe(b *testing.B, mode workloads.GatewayMode) {
	var last workloads.GatewayResult
	for i := 0; i < b.N; i++ {
		res, err := workloads.RunGateway(workloads.GatewayConfig{
			Mode: mode, Sessions: 16, Requests: 8, HeapLimit: 64 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SpawnP99.Nanoseconds())/1e3, "spawn-p99-us")
	b.ReportMetric(last.ServesPerSec, "serves/s")
}

func BenchmarkServe_ColdSpawn(b *testing.B)     { benchServe(b, workloads.GatewayCold) }
func BenchmarkServe_CloneSpawn(b *testing.B)    { benchServe(b, workloads.GatewayClone) }
func BenchmarkServe_RecycledSpawn(b *testing.B) { benchServe(b, workloads.GatewayRecycled) }

// benchServeConcurrent runs one concurrent gateway run per op: 16
// closed-loop tenant clients provisioning sessions cold or from the
// pre-warmed clone pool while every other tenant's instructions keep
// the scheduler busy. Spawn p99 is reported in virtual ticks (the
// GatewayConcurrentResult measurement contract — a warm pool Acquire
// can legitimately report 0); serves/s is wall-clock.
func benchServeConcurrent(b *testing.B, usePool bool) {
	var last workloads.GatewayConcurrentResult
	for i := 0; i < b.N; i++ {
		res, err := workloads.RunGatewayConcurrent(workloads.GatewayConcurrentConfig{
			Tenants: 16, Requests: 4, HeapLimit: 64 << 20,
			UsePool: usePool, PoolCapacity: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SpawnP99Ticks), "spawn-p99-ticks")
	b.ReportMetric(last.ServesPerSec, "serves/s")
}

func BenchmarkServeConcurrent_ColdSpawn(b *testing.B) { benchServeConcurrent(b, false) }
func BenchmarkServeConcurrent_PoolSpawn(b *testing.B) { benchServeConcurrent(b, true) }
