// Microbenchmarks for the legs bench/ does not report.
//
// The rule: a benchmark lives here if and only if no metric in
// BENCHMARK.json reports its leg. bench/ is the measurement system — seeded
// runs, medians, output checks against the seed-switch reference — and a
// number printed by `go test -bench` is recorded nowhere (CI runs these at
// -benchtime=1x as a crash smoke), so a leg measured in both places is a
// leg with two answers. A function here stays exactly as it is until a
// benchmark PR ports its leg into a bench/ workload, and is deleted by that
// PR.
//
// What is here, and why no bench/ metric covers it:
//
//	BenchmarkAlloc_{GlobalLocked,ShardLocal}   6 allocators + 4 pollers on one heap vs the seed's global mutex; heap_churn has 1 client
//	BenchmarkField_GetPut{,_Unprepared}        per-site field-slot cache vs the seed switch; bench/ times no field loop
//	BenchmarkTier_{Seed,Closure}               one loop on the seed switch and on the closure tier; bench/ times the production tier only
//	BenchmarkIntern_{LdcHot,ReadParallel}      string-pool read path; no workload executes ldc of a string in a loop
//	BenchmarkRPC_Mesh                          registry fan-out + aggregation + tenant churn; bundle_calls has one link
//	BenchmarkQoS_SLO{ProportionalGoverned,RoundRobin}  the round-robin queue policy; tenant_gateway runs the governed policy only
//	BenchmarkServe_RecycledSpawn               clones onto recycled isolate IDs served on one reused thread slot; tenant_gateway names cold and clone spawns only
//	BenchmarkAblationPreciseAccounting_*       §3.2 first-tracer vs one trace per isolate; bench/ never calls PreciseAccounting
//
// What used to be here, and the metric that reports the same leg
// (`bash bench/run.sh --workload <w> --seed 1 --seconds 2 --trace 1`):
//
//	BenchmarkTable1_{LocalCall,IJVMCall}       bundle_calls: call_ijvm_ns, isolation_overhead (Isolated / Shared batch)
//	BenchmarkTable1_Incommunicado              bundle_calls: call_link_p50_us, call_link_p99_us
//	BenchmarkTable1_RMI                        bundle_calls: rpc.rmi_call_us
//	BenchmarkFig1_IntraCall_*                  spec_compute: interp.prog.intra.{iso,shared}_ms
//	BenchmarkFig1_InterCall_*                  bundle_calls: interp.migrate_ns, call_ijvm_ns
//	BenchmarkFig1_Alloc_*                      heap_churn: heap.alloc_ns_per_obj, alloc_mobj_per_s, isolation_overhead
//	BenchmarkFig1_StaticAccess_*               spec_compute: interp.prog.static.{iso,shared}_ms, interp.static_access_ns
//	BenchmarkFig2_<Program>_*                  spec_compute: interp.prog.<program>.{iso,shared}_ms
//	BenchmarkFig3_{Felix,Equinox}_*            bundle_calls: osgi.{felix,equinox}_mem_overhead
//	BenchmarkAblationCPUAccounting_*           bundle_calls: core.percall_accounting_ratio
//	BenchmarkAblationGCAccounting_*            heap_churn: heap.full_stw_pause_us (the "off" leg's knob is deleted)
//	BenchmarkAblationIsolateSwitch_*           aliases of Fig1_{IntraCall,InterCall}_IJVM
//	BenchmarkAblationTCM_*                     aliases of Fig1_StaticAccess_*
//	BenchmarkScheduler_*                       tenant_gateway: sched.w1_vs_sequential, sched.w2_speedup
//	BenchmarkInvoke_*                          spec_compute: interp.invoke_{mono,poly4,mega8}_ns
//	BenchmarkGC_{FullSTW,IncrementalTerminal}Pause  heap_churn: heap.full_stw_pause_us, heap.finish_cycle_us
//	BenchmarkGC_Mutator{Idle,DuringMark}       heap_churn: heap.barrier_tax, store_marking_minstr_per_s
//	BenchmarkRPC_Serial                        bundle_calls: rpc.serial_calls_per_s
//	BenchmarkRPC_Sync                          bundle_calls: call_link_p50_us, rpc.submit_us, rpc.wait_us
//	BenchmarkRPC_Pipelined                     bundle_calls: link_calls_per_s
//	BenchmarkRPC_DeepCopyPayload               bundle_calls: payload_calls_per_s, rpc.deepcopy_us_per_kelem
//	BenchmarkRPC_ZeroCopyFrozen                bundle_calls: frozen_calls_per_s
//	BenchmarkServe_{ColdSpawn,CloneSpawn}      tenant_gateway: spawn_cold_p50_ms, spawn_clone_p50_us, interp.serve_{cold,clone}_us
//	BenchmarkServeConcurrent_*                 tenant_gateway: sessions_per_s, serve_p99_ticks, serve.acquire_us
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
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
	"ijvm/internal/workloads"
	"ijvm/internal/workloads/mesh"
)

// --- §3.2 accounting ablation -----------------------------------------------

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
	allocs  map[heap.IsolateID]*seedAllocStats
}

// seedAllocStats is one isolate's entry in the seed heap's statistics map.
type seedAllocStats struct{ Objects, Bytes int64 }

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
		s = &seedAllocStats{}
		h.allocs[iso] = s
	}
	s.Objects++
	s.Bytes += size
	return o, nil
}

// sampleAll mirrors one detector sweep against the seed heap: Used,
// NumObjects and every isolate's allocated bytes, all behind the same
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
// Used, NumObjects and the accounts' allocated bytes continuously). Under
// the seed discipline those reads took the allocator's global mutex; the
// sharded heap and the accounts serve them from atomics.
const allocBenchPollers = 4

func runAllocBatch(c *classfile.Class, shardLocal bool) error {
	var h *heap.Heap
	var seed *seedAllocator
	if shardLocal {
		h = heap.New(1 << 40) // never exhausts: measures admission, not GC
	} else {
		seed = &seedAllocator{limit: 1 << 40, allocs: make(map[heap.IsolateID]*seedAllocStats)}
	}
	accounts := make([]core.AccountCounters, allocBenchGoroutines)
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
					for iso := range accounts {
						sink += accounts[iso].AllocatedBytes.Load()
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
				for i := 0; i < allocBenchPerG; i++ {
					obj, err := dom.AllocObject(c, iso)
					if err != nil {
						errs[g] = err
						return
					}
					batch.Note(&accounts[g], obj.Size())
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

// --- Tier microbenchmarks (seed switch vs closure tier) -------------------
//
// One hot arithmetic loop measured both ways a VM can execute it:
//
//	seed     — unquickened checked switch (DisablePrepare)
//	closure  — closure-threaded blocks, compiled at preparation
//
// The closure compiler folds the loop body's loads, constants and stores
// into the micros of the ops and the compare that consume them — five
// micros for 17 bytecodes — and the iinc+goto final chains back into the
// loop head, so an engine step retires many iterations. Minstr/s counts
// retired bytecodes (a folded micro retires the same count as the seed —
// the oracle proves it), so the metric is directly comparable across
// tiers.

const tierBenchInner = 10_000

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

func tierBenchVM(disablePrepare bool) (*interp.VM, *core.Isolate, *classfile.Method, error) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, DisablePrepare: disablePrepare})
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

func benchTier(b *testing.B, disablePrepare bool) {
	b.Helper()
	vm, iso, m, err := tierBenchVM(disablePrepare)
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

func BenchmarkTier_Seed(b *testing.B)    { benchTier(b, true) }
func BenchmarkTier_Closure(b *testing.B) { benchTier(b, false) }

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

// --- Gateway serving (isolate recycling) --------------------------------------

// BenchmarkServe_RecycledSpawn runs one sequential gateway run per op:
// tenant sessions cloned from a warmed snapshot onto isolate IDs recycled
// through the free pool and served on one reused thread slot, with
// kill/sweep/free churn between sessions.
func BenchmarkServe_RecycledSpawn(b *testing.B) {
	var last workloads.GatewayResult
	for i := 0; i < b.N; i++ {
		res, err := workloads.RunGateway(workloads.GatewayConfig{
			Mode: workloads.GatewayRecycled, Sessions: 16, Requests: 8, HeapLimit: 64 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SpawnP99.Nanoseconds())/1e3, "spawn-p99-us")
	b.ReportMetric(last.ServesPerSec, "serves/s")
}
