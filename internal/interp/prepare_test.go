package interp_test

import (
	"os"
	"path/filepath"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
	"ijvm/internal/textasm"
)

// execTrace is everything the dispatch oracle compares between the
// quickened interpreter and the seed-style switch interpreter: the
// guest-visible result, the captured output, and the full accounting
// surface (per-isolate instruction counts, total instructions, the
// virtual clock, CPU samples).
type execTrace struct {
	result     int64
	failure    string
	output     string
	total      int64
	clock      int64
	perIsolate map[string][2]int64 // name -> {Instructions, CPUSamples}
}

// runProgramTrace assembles and runs one .jasm program entry point and
// captures its execution trace.
func runProgramTrace(t *testing.T, mode core.Mode, disablePrepare bool, file, class, method, desc string, args []heap.Value) execTrace {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("../../examples/programs", file))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := textasm.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	vm := interp.NewVM(interp.Options{Mode: mode, DisablePrepare: disablePrepare})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(classes); err != nil {
		t.Fatal(err)
	}
	c, err := iso.Loader().Lookup(class)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod(method, desc)
	if err != nil {
		t.Fatal(err)
	}
	v, th, err := vm.CallRoot(iso, m, args, 50_000_000)
	if err != nil {
		t.Fatalf("host error: %v", err)
	}
	return traceOf(vm, v, th)
}

func traceOf(vm *interp.VM, v heap.Value, th *interp.Thread) execTrace {
	tr := execTrace{
		result:     v.I,
		failure:    th.FailureString(),
		output:     vm.Output(),
		total:      vm.TotalInstructions(),
		clock:      vm.Clock(),
		perIsolate: make(map[string][2]int64),
	}
	for _, s := range vm.Snapshots() {
		tr.perIsolate[s.IsolateName] = [2]int64{s.Instructions, s.CPUSamples}
	}
	return tr
}

func assertTraceEqual(t *testing.T, name string, prepared, seed execTrace) {
	t.Helper()
	if prepared.result != seed.result {
		t.Errorf("%s: result %d (prepared) != %d (seed)", name, prepared.result, seed.result)
	}
	if prepared.failure != seed.failure {
		t.Errorf("%s: failure %q (prepared) != %q (seed)", name, prepared.failure, seed.failure)
	}
	if prepared.output != seed.output {
		t.Errorf("%s: output mismatch:\nprepared: %q\nseed:     %q", name, prepared.output, seed.output)
	}
	if prepared.total != seed.total {
		t.Errorf("%s: total instructions %d (prepared) != %d (seed)", name, prepared.total, seed.total)
	}
	if prepared.clock != seed.clock {
		t.Errorf("%s: clock %d (prepared) != %d (seed)", name, prepared.clock, seed.clock)
	}
	if len(prepared.perIsolate) != len(seed.perIsolate) {
		t.Errorf("%s: isolate count %d (prepared) != %d (seed)", name, len(prepared.perIsolate), len(seed.perIsolate))
	}
	for iso, p := range prepared.perIsolate {
		s, ok := seed.perIsolate[iso]
		if !ok {
			t.Errorf("%s: isolate %s missing from seed run", name, iso)
			continue
		}
		if p != s {
			t.Errorf("%s: isolate %s {instructions, samples} = %v (prepared) != %v (seed)", name, iso, p, s)
		}
	}
}

// TestDispatchOraclePrograms runs every shipped .jasm program through the
// quickened (prepared) interpreter and the seed-style switch interpreter
// and asserts byte-identical results and accounting: same values, same
// output, same per-isolate instruction counts, same virtual clock. This
// is the instruction-count determinism guarantee the quickening pass
// must preserve — budget exhaustion and the §4.3 detectors fire at
// identical points on both paths.
func TestDispatchOraclePrograms(t *testing.T) {
	programs := []struct {
		file   string
		class  string
		method string
		desc   string
		args   []heap.Value
	}{
		{"sieve.jasm", "demo/Sieve", "run", "(I)I", []heap.Value{heap.IntVal(1000)}},
		{"sieve.jasm", "demo/Sieve", "run", "(I)I", []heap.Value{heap.IntVal(100)}},
		{"quicksort.jasm", "demo/Quicksort", "run", "(I)I", []heap.Value{heap.IntVal(300)}},
		{"hello.jasm", "demo/Hello", "main", "()V", nil},
	}
	for _, p := range programs {
		for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			name := p.file + "/" + mode.String()
			t.Run(name, func(t *testing.T) {
				prepared := runProgramTrace(t, mode, false, p.file, p.class, p.method, p.desc, p.args)
				seed := runProgramTrace(t, mode, true, p.file, p.class, p.method, p.desc, p.args)
				assertTraceEqual(t, name, prepared, seed)
			})
		}
	}
}

// TestDispatchOracleControlFlow drives the paths the shipped programs do
// not reach — exceptions with handlers, monitors, statics with <clinit>
// re-execution, virtual dispatch, and a budget-exhausted run — through
// both dispatch modes and asserts identical traces.
func TestDispatchOracleControlFlow(t *testing.T) {
	mkClasses := func() []*classfile.Class {
		helper := classfile.NewClass("ora/Helper").
			StaticField("seed", classfile.KindInt).
			Field("v", classfile.KindInt).
			Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Const(7).PutStatic("ora/Helper", "seed").Return()
			}).
			Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
				a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
			}).
			Method("bump", "(I)I", classfile.FlagPublic, func(a *bytecode.Assembler) {
				a.ALoad(0).ALoad(0).GetField("ora/Helper", "v").ILoad(1).IAdd().PutField("ora/Helper", "v")
				a.ALoad(0).GetField("ora/Helper", "v").IReturn()
			}).MustBuild()
		main := classfile.NewClass("ora/Main").
			Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				// sum = clinit'd static; loop calling bump virtually; a
				// caught division by zero; monitorenter/exit; throw/catch
				// across a frame.
				a.GetStatic("ora/Helper", "seed").IStore(1) // sum = 7
				a.New("ora/Helper").Dup().InvokeSpecial("ora/Helper", classfile.InitName, "()V").AStore(2)
				a.Const(0).IStore(3)
				a.Label("loop")
				a.ILoad(3).ILoad(0).IfICmpGe("after")
				a.ALoad(2).ILoad(3).InvokeVirtual("ora/Helper", "bump", "(I)I").IStore(1)
				a.IInc(3, 1).Goto("loop")
				a.Label("after")
				a.ALoad(2).MonitorEnter()
				a.ALoad(2).MonitorExit()
				a.Label("try")
				a.ILoad(1).Const(0).IDiv().IStore(1)
				a.Label("endtry")
				a.Goto("done")
				a.Label("catch")
				a.Pop().IInc(1, 1000)
				a.Label("done")
				a.ILoad(1).IReturn()
				a.Handler("try", "endtry", "catch", "java/lang/ArithmeticException")
			}).MustBuild()
		return []*classfile.Class{helper, main}
	}

	runOnce := func(t *testing.T, disablePrepare bool, budget int64) execTrace {
		t.Helper()
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, DisablePrepare: disablePrepare})
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().DefineAll(mkClasses()); err != nil {
			t.Fatal(err)
		}
		c, err := iso.Loader().Lookup("ora/Main")
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.LookupMethod("run", "(I)I")
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread("oracle", iso, m, []heap.Value{heap.IntVal(50)})
		if err != nil {
			t.Fatal(err)
		}
		_ = vm.RunUntil(th, budget)
		return traceOf(vm, th.Result(), th)
	}

	for _, budget := range []int64{0, 333} { // unlimited and budget-exhausted mid-run
		prepared := runOnce(t, false, budget)
		seed := runOnce(t, true, budget)
		assertTraceEqual(t, "controlflow", prepared, seed)
	}
}

// TestSleepDeadlineExactUnderBatching pins the virtual-clock semantics
// of the batched sequential engine: a timed sleep parked mid-quantum
// must wake exactly as under the seed's per-instruction clock
// publication (VM.NowTicks compensates for the pending batch when the
// deadline is computed). The invariant: a single-threaded run that
// sleeps once for d ticks ends with Clock == TotalInstructions + d - 1,
// independent of where inside the quantum the sleep lands and of the
// dispatch mode.
func TestSleepDeadlineExactUnderBatching(t *testing.T) {
	const d = 100
	for _, disablePrepare := range []bool{false, true} {
		for _, pad := range []int64{5, 600} { // sleep early vs. mid-quantum
			vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, DisablePrepare: disablePrepare})
			syslib.MustInstall(vm)
			iso, err := vm.NewIsolate("main")
			if err != nil {
				t.Fatal(err)
			}
			c := classfile.NewClass("clk/Main").
				Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.Const(0).IStore(1)
					a.Label("loop")
					a.ILoad(1).ILoad(0).IfICmpGe("done")
					a.IInc(1, 1).Goto("loop")
					a.Label("done")
					a.Const(d).InvokeStatic("java/lang/Thread", "sleep", "(I)V")
					a.ILoad(1).IReturn()
				}).MustBuild()
			if err := iso.Loader().Define(c); err != nil {
				t.Fatal(err)
			}
			m, err := c.LookupMethod("run", "(I)I")
			if err != nil {
				t.Fatal(err)
			}
			if _, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(pad)}, 1_000_000); err != nil || th.Failure() != nil {
				t.Fatalf("run: %v / %v", err, th.FailureString())
			}
			if got := vm.Clock() - vm.TotalInstructions(); got != d-1 {
				t.Errorf("seed=%v pad=%d: clock-total = %d, want %d (sleep deadline drifted under batching)",
					disablePrepare, pad, got, d-1)
			}
		}
	}
}

// TestVoidReturnFromValueMethod pins the lying-descriptor guard: a
// callee declared ()I whose body is a bare void return passes
// structural validation, but callers (and the prepared verifier) size
// their stacks from the descriptor. Both dispatch modes must terminate
// the offending thread with the same host error — the prepared caller
// must never reach an unchecked pop on the missing value (which would
// panic the whole VM on guest-supplied bytecode).
func TestVoidReturnFromValueMethod(t *testing.T) {
	var errs []string
	for _, disablePrepare := range []bool{false, true} {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, DisablePrepare: disablePrepare})
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		bad := classfile.NewClass("rk/Bad").
			Method("bad", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Return() // void return from a ()I method
			}).MustBuild()
		main := classfile.NewClass("rk/Main").
			Method("run", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.InvokeStatic("rk/Bad", "bad", "()I").IReturn()
			}).MustBuild()
		if err := iso.Loader().DefineAll([]*classfile.Class{bad, main}); err != nil {
			t.Fatal(err)
		}
		m, err := main.LookupMethod("run", "()I")
		if err != nil {
			t.Fatal(err)
		}
		_, th, err := vm.CallRoot(iso, m, nil, 100_000)
		if err == nil || th == nil || th.Err() == nil {
			t.Fatalf("seed=%v: expected a host error for the lying descriptor, got err=%v", disablePrepare, err)
		}
		errs = append(errs, th.Err().Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("dispatch modes disagree on the error: %q (prepared) vs %q (seed)", errs[0], errs[1])
	}
}

// TestPendingArgsAreGCRoots proves in-flight invocation arguments
// survive a collection triggered during call setup. The scenario: the
// heap is filled to the brim, then a static synchronized method is
// invoked with a finalizable object as its only argument — allocating
// the per-isolate Class object for the monitor triggers a GC while the
// argument lives only in the pending-args window (the caller's stack is
// already truncated). The argument must be treated as a root: it must
// not be swept and its finalizer must not run.
func TestPendingArgsAreGCRoots(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	fin := classfile.NewClass("fin/F").
		StaticField("count", classfile.KindInt).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		Method("finalize", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.GetStatic("fin/F", "count").Const(1).IAdd().PutStatic("fin/F", "count").Return()
		}).MustBuild()
	target := classfile.NewClass("tgt/K").
		Method("m", "(Ljava/lang/Object;)I", classfile.FlagStatic|classfile.FlagSynchronized,
			func(a *bytecode.Assembler) {
				a.ALoad(0).IfNull("gone")
				a.Const(1).IReturn()
				a.Label("gone")
				a.Const(0).IReturn()
			}).MustBuild()
	if err := iso.Loader().DefineAll([]*classfile.Class{fin, target}); err != nil {
		t.Fatal(err)
	}
	arg, err := vm.AllocObjectIn(nil, fin, iso)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the heap completely with unreferenced garbage so the next
	// allocation (the Class object of tgt/K, for the synchronized-static
	// monitor) must collect.
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := vm.Heap().AllocObject(objClass, iso.ID()); err != nil {
			break
		}
	}
	m, err := target.LookupMethod("m", "(Ljava/lang/Object;)I")
	if err != nil {
		t.Fatal(err)
	}
	v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.RefVal(arg)}, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("call: %v / %v", err, th.FailureString())
	}
	if v.I != 1 {
		t.Fatalf("m returned %d, want 1", v.I)
	}
	if vm.Heap().GCCount() == 0 {
		t.Fatal("scenario did not trigger a collection; the test lost its teeth")
	}
	if got := iso.Account().FinalizersRun.Load(); got != 0 {
		t.Fatalf("finalizer ran %d times on a live in-flight argument", got)
	}
}

// TestPreparedFallback proves a method the verifier rejects (conflicting
// stack depths at a merge point) still executes correctly through the
// reference switch path while prepared dispatch stays enabled for the
// rest of the VM.
func TestPreparedFallback(t *testing.T) {
	vm, iso := newVM(t, core.ModeIsolated)
	// The two arms reach "merge" with different stack depths (2 vs 1).
	// Runtime behavior is still well-defined — ireturn consumes the top
	// value and the frame discards the rest — but the dataflow cannot
	// assign one depth, so the method must fall back to checked dispatch.
	c := define(t, iso, classfile.NewClass("fb/Merge").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).IfEq("small")
			a.Const(99).Const(3).Goto("merge") // depth 2: [99, 3]
			a.Label("small")
			a.Const(5) // depth 1: [5]
			a.Label("merge")
			a.IReturn()
		}).MustBuild())
	m := findMethod(t, c, "run")
	for arg, want := range map[int64]int64{1: 3, 0: 5} {
		v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 100_000)
		if err != nil || th.Failure() != nil {
			t.Fatalf("run(%d): %v / %v", arg, err, th.FailureString())
		}
		if v.I != want {
			t.Fatalf("run(%d) = %d, want %d", arg, v.I, want)
		}
	}
	if p := m.Code.Prepared(); p == nil || len(p.Instrs) != 0 {
		t.Fatalf("expected the unpreparable sentinel, got %+v", p)
	}
}

// TestFirstCallRunsCompiledBlocks: with default options preparation
// compiles a method's closure program and publishes it with the form, so
// the first activation already runs compiled blocks — its first engine
// step retires a chain of instructions — with no warm-up in front.
func TestFirstCallRunsCompiledBlocks(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	c := define(t, iso, classfile.NewClass("fc/Loop").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// Locals: 0 n, 1 acc, 2 i.
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ILoad(1).ILoad(2).IAdd().IStore(1)
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild())
	m := findMethod(t, c, "run")
	th, err := vm.SpawnThread("first", iso, m, []heap.Value{heap.IntVal(100)})
	if err != nil {
		t.Fatal(err)
	}
	switch folded, links, ok := interp.ClosureShapeForTest(m.Code.Prepared()); {
	case !ok:
		t.Fatal("the first call's prepared form carries no closure program")
	case folded == 0 || links == 0:
		t.Fatalf("closure program has %d folded micros and %d chain links", folded, links)
	}
	sizes, err := vm.StepSizesForTest(th, 1000, 1)
	if err != nil || len(sizes) != 1 {
		t.Fatalf("first step: %v, %v", sizes, err)
	}
	if sizes[0] <= 1 {
		t.Fatalf("the first step of the first activation retired %d instruction(s)", sizes[0])
	}
	if res := vm.RunUntil(th, 0); !th.Done() || th.Result().I != 99*100/2 {
		t.Fatalf("run(100) = %d after %+v, want %d", th.Result().I, res, 99*100/2)
	}
}
