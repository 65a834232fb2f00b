package interp_test

import (
	"fmt"
	"sort"
	"strings"
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
	paper "ijvm/internal/workloads"
)

// Cross-bundle leaf calls (closure.go callSite.enter): a leaf defined by
// another bundle's loader runs inside the caller's block, and in Isolated
// mode the micro migrates the thread for the body and back. These tests pin
// that the migration is exact — per-isolate instructions, CPU samples and
// call counts, and the clock, as single-step execution has them — and that
// it holds on two workers beside collections, interrupts and a kill.

const xbMain = "xb/Main"

// xbMainClass is the caller bundle's extra driver. all(n) runs Fig 1's run
// loop and Table 1's rundrag loop (paper.CallerClasses), n calls of the
// static leaf Service.fstatic, and n drag calls whose event is null and n
// whose event is no array — each of those throws in the callee, and the
// caller catches it.
func xbMainClass() *classfile.Class {
	svc := paper.ServiceClassName
	drag := func(a *bytecode.Assembler, event func(), ex, tag string) {
		a.Const(0).IStore(2)
		a.Label(tag + "loop").ILoad(2).ILoad(0).IfICmpGe(tag + "done")
		a.Label(tag+"try").ILoad(1).GetStatic(paper.CallerClassName, "svc")
		event()
		a.InvokeVirtual(svc, "drag", "(Ljava/lang/Object;)I").IAdd().IStore(1).Goto(tag + "next")
		a.Label(tag + "catch").Pop().ILoad(1).ILoad(2).IXor().IStore(1)
		a.Label(tag+"next").IInc(2, 1).Goto(tag + "loop")
		a.Handler(tag+"try", tag+"catch", tag+"catch", ex)
		a.Label(tag + "done")
	}
	return classfile.NewClass(xbMain).
		Method("all", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0=n 1=acc 2=i
			a.ILoad(0).InvokeStatic(paper.CallerClassName, paper.MicroDriverMethod, paper.MicroDriverDesc).IStore(1)
			a.ILoad(1).Const(31).IMul().ILoad(0).
				InvokeStatic(paper.CallerClassName, paper.DragDriverMethod, paper.MicroDriverDesc).IAdd().IStore(1)
			a.Const(0).IStore(2)
			a.Label("sloop").ILoad(2).ILoad(0).IfICmpGe("sdone")
			a.ILoad(1).InvokeStatic(svc, "fstatic", "(I)I").Const(0xFFFF).IAnd().IStore(1)
			a.IInc(2, 1).Goto("sloop")
			a.Label("sdone")
			drag(a, func() { a.Null() }, interp.ClassNullPointerException, "null")
			drag(a, func() { a.Dup() }, interp.ClassClassCastException, "self")
			a.ILoad(1).IReturn()
		}).MustBuild()
}

// newXBCallee returns the service bundle's isolate. In Isolated mode a
// platform isolate comes first: Isolate0 cannot be killed.
func newXBCallee(t *testing.T, vm *interp.VM) *core.Isolate {
	t.Helper()
	if vm.World().Isolated() {
		if _, err := vm.NewIsolate("platform"); err != nil {
			t.Fatal(err)
		}
	}
	callee, err := vm.NewIsolate("callee")
	if err != nil {
		t.Fatal(err)
	}
	if err := callee.Loader().DefineAll(paper.ServiceClasses()); err != nil {
		t.Fatal(err)
	}
	return callee
}

// xbPair is a caller bundle wired to a callee bundle holding the service.
type xbPair struct {
	callee, caller *core.Isolate
	driver         *classfile.Class // paper.CallerClassName
	main, storm    *classfile.Class // xbMain, xbStorm
	svc            *heap.Object     // the bound service, made in the callee
}

// newXBPair installs the service bundle and a caller bundle in vm — in
// Shared mode, where the world has one isolate, the caller bundle is a
// second loader — and binds a service instance made in the callee.
func newXBPair(t *testing.T, vm *interp.VM, callee *core.Isolate, callerName string) xbPair {
	t.Helper()
	p := xbPair{callee: callee, caller: callee}
	callerLoader := vm.Registry().NewLoader(callerName)
	if vm.World().Isolated() {
		iso, err := vm.World().NewIsolate(callerName, callerLoader)
		if err != nil {
			t.Fatal(err)
		}
		p.caller = iso
	}
	callerLoader.AddDelegate(callee.Loader())
	if err := callerLoader.DefineAll(append(paper.CallerClasses(), xbMainClass(), xbStormClass())); err != nil {
		t.Fatal(err)
	}
	svcClass, err := callee.Loader().Lookup(paper.ServiceClassName)
	if err != nil {
		t.Fatal(err)
	}
	obj := callStatic(t, vm, callee, svcClass, "make")
	if p.driver, err = callerLoader.Lookup(paper.CallerClassName); err != nil {
		t.Fatal(err)
	}
	if p.main, err = callerLoader.Lookup(xbMain); err != nil {
		t.Fatal(err)
	}
	if p.storm, err = callerLoader.Lookup(xbStorm); err != nil {
		t.Fatal(err)
	}
	callStatic(t, vm, p.caller, p.driver, "bind", obj)
	p.svc = obj.R
	return p
}

// runXBOracle runs xb/Main.all three times in a fresh VM with the given
// sampling period and quantum on the seed switch or the closure engine,
// then, in Isolated mode, kills the callee and runs it once more (the
// first cross-bundle call throws), and reports everything the engines must
// agree on: results, failures, instruction totals, the clock and every
// isolate's account.
func runXBOracle(t *testing.T, mode core.Mode, seed bool, every, quantum int) string {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: mode, SampleEvery: every, Quantum: quantum, DisablePrepare: seed})
	syslib.MustInstall(vm)
	p := newXBPair(t, vm, newXBCallee(t, vm), "caller")
	all := findMethod(t, p.main, "all")
	var out strings.Builder
	call := func() {
		v, th, err := vm.CallRoot(p.caller, all, []heap.Value{heap.IntVal(25)}, 50_000_000)
		fmt.Fprintf(&out, "result=%d err=%v failure=%q\n", v.I, err, th.FailureString())
	}
	for k := 0; k < 3; k++ {
		call()
	}
	if mode == core.ModeIsolated {
		if err := vm.KillIsolate(nil, p.callee); err != nil {
			t.Fatal(err)
		}
		call()
	}
	fmt.Fprintf(&out, "total=%d clock=%d\n", vm.TotalInstructions(), vm.Clock())
	var rows []string
	for _, s := range vm.Snapshots() {
		rows = append(rows, fmt.Sprintf("%s: instr=%d samples=%d in=%d out=%d alloc=%d/%d",
			s.IsolateName, s.Instructions, s.CPUSamples, s.InterBundleCallsIn, s.InterBundleCallsOut,
			s.AllocatedObjects, s.AllocatedBytes))
	}
	sort.Strings(rows)
	out.WriteString(strings.Join(rows, "\n"))
	return out.String()
}

// TestCrossBundleLeafOracle runs Fig 1's and Table 1's cross-bundle loops,
// a static cross-bundle leaf and drag calls whose event fails the leaf's
// parameter guard, on the closure engine against the seed switch, in both
// modes, at sampling periods 1, 2, 3 and 127 and at a quantum of 7 (most
// blocks and leaves straddle an edge) and the default. Every isolate's
// instructions, CPU samples, call counts and allocations, the clock and
// the results must be equal; in Isolated mode the run ends with a call into
// the killed callee, which must throw, not inline.
func TestCrossBundleLeafOracle(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for _, every := range []int{1, 2, 3, 127} {
			for _, quantum := range []int{7, 1000} {
				ref := runXBOracle(t, mode, true, every, quantum)
				if got := runXBOracle(t, mode, false, every, quantum); got != ref {
					t.Fatalf("%v every=%d quantum=%d: closure diverges from the seed switch\n got %s\nwant %s", mode, every, quantum, got, ref)
				}
				if mode == core.ModeIsolated && !strings.Contains(ref, "call into killed isolate callee") {
					t.Fatalf("every=%d quantum=%d: the call into the killed callee did not throw:\n%s", every, quantum, ref)
				}
			}
		}
	}
}

const xbStorm = "xb/Storm"

// xbStormClass is the storm's per-bundle driver: loop(k) runs rounds of
// Fig 1's run(k) and Table 1's rundrag(k) forever, folding each result
// into acc and counting the finished rounds in done, until a call throws.
func xbStormClass() *classfile.Class {
	return classfile.NewClass(xbStorm).
		StaticField("done", classfile.KindInt).
		StaticField("acc", classfile.KindInt).
		Method("loop", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Label("round")
			a.GetStatic(xbStorm, "acc").Const(31).IMul().
				ILoad(0).InvokeStatic(paper.CallerClassName, paper.MicroDriverMethod, paper.MicroDriverDesc).IAdd().
				Const(31).IMul().
				ILoad(0).InvokeStatic(paper.CallerClassName, paper.DragDriverMethod, paper.MicroDriverDesc).IAdd().
				Const(0xFFFFFF).IAnd().PutStatic(xbStorm, "acc")
			a.GetStatic(xbStorm, "done").Const(1).IAdd().PutStatic(xbStorm, "done")
			a.Goto("round")
		}).
		Method("done", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) { a.GetStatic(xbStorm, "done").IReturn() }).
		Method("acc", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) { a.GetStatic(xbStorm, "acc").IReturn() }).
		MustBuild()
}

// xbStormAcc is xb/Storm's acc after done rounds of k calls each way on a
// fresh service: before round r the service's total is 2rk, run(k) returns
// the total after its calls and rundrag(k) the event's length, 8, plus it.
func xbStormAcc(k, done int64) int64 {
	var acc int64
	for r := int64(0); r < done; r++ {
		acc = ((acc*31+2*r*k+k)*31 + 8 + 2*r*k + 2*k) & 0xFFFFFF
	}
	return acc
}

// TestCrossBundleLeafStorm (-race) runs Table 1's rundrag and Fig 1's run
// loops from eight caller bundles, one thread each with a service of its
// own in one callee bundle, on two workers beside collections, incremental
// cycles and interrupts of the callers, and kills the callee mid-storm.
// Every caller must have folded exact results for the rounds it finished
// and then died of the kill, and no call may enter the callee after the
// kill. Every call a caller made is counted once on each side: the service's total counts the bodies that ran, and a call the
// kill stopped inside the callee, before its body stored the total, is
// the one call that may count without it. The accounts sum to the run's
// totals and, after a collection, to the heap.
func TestCrossBundleLeafStorm(t *testing.T) {
	const callers, k = 8, 40
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10, GCThresholdPercent: 50, GCMarkStride: 64})
	syslib.MustInstall(vm)
	callee := newXBCallee(t, vm)
	var pairs []xbPair
	var threads []*interp.Thread
	for i := 0; i < callers; i++ {
		p := newXBPair(t, vm, callee, fmt.Sprintf("caller%d", i))
		th, err := vm.SpawnThread(p.caller.Name(), p.caller, findMethod(t, p.storm, "loop"), []heap.Value{heap.IntVal(k)})
		if err != nil {
			t.Fatal(err)
		}
		pairs, threads = append(pairs, p), append(threads, th)
	}
	// The kill lands once the storm has run a while and every caller has
	// entered its fourth round, so each has finished three.
	ready := func() bool {
		for _, p := range pairs {
			if vm.SnapshotOf(p.caller).InterBundleCallsOut <= 6*k {
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var inAtKill int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !awaitAttached(vm, stop) {
			return
		}
		killed := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				vm.CollectGarbage(nil)
			case 1:
				vm.StartIncrementalCycle()
			case 2:
				for _, th := range threads {
					vm.InterruptThread(th)
				}
			default:
				vm.FinishIncrementalCycle()
			}
			if !killed && i >= 200 && ready() {
				if err := vm.KillIsolate(nil, callee); err != nil {
					t.Errorf("kill: %v", err)
				}
				killed, inAtKill = true, vm.SnapshotOf(callee).InterBundleCallsIn
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	// The budget only bounds a run whose callers outlive the kill: an exact
	// run ends within a few million instructions.
	res := sched.Run(vm, 2, 1<<30)
	close(stop)
	wg.Wait()
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	var in, out int64
	for i, p := range pairs {
		th := threads[i]
		failure := th.FailureString()
		if !strings.Contains(failure, "StoppedIsolateException") {
			t.Fatalf("caller%d: %v / %q, want the kill's exception", i, th.Err(), failure)
		}
		done := callStatic(t, vm, p.caller, p.storm, "done").I
		if got, want := callStatic(t, vm, p.caller, p.storm, "acc").I, xbStormAcc(k, done); done < 3 || got != want {
			t.Fatalf("caller%d: acc %d after %d rounds, want %d", i, got, done, want)
		}
		calls := vm.SnapshotOf(p.caller).InterBundleCallsOut
		bodies := p.svc.Elems[0].I
		inside := strings.Contains(failure, "isolate callee stopped")
		// The kill may stop a caller inside the last call of a round, before
		// it counts the round done.
		if calls < 2*k*done || calls > 2*k*(done+1) || calls != bodies && (calls != bodies+1 || !inside) {
			t.Fatalf("caller%d: %d calls out, %d bodies ran, %d rounds done, failure %q", i, calls, bodies, done, failure)
		}
		out += calls
	}
	if in = vm.SnapshotOf(callee).InterBundleCallsIn; in != out || in != inAtKill {
		t.Fatalf("the callee counts %d calls in, %d at the kill; the callers %d out", in, inAtKill, out)
	}
	var instrs int64
	for _, s := range vm.Snapshots() {
		instrs += s.Instructions
	}
	if instrs != vm.TotalInstructions() {
		t.Fatalf("accounts sum to %d instructions, the VM retired %d", instrs, vm.TotalInstructions())
	}
	vm.CollectGarbage(nil)
	var liveObjs, liveBytes int64
	for _, s := range vm.Snapshots() {
		liveObjs += s.LiveObjects
		liveBytes += s.LiveBytes
	}
	if h := vm.Heap(); liveObjs != int64(h.NumObjects()) || liveBytes != h.Used() {
		t.Fatalf("live usage sums to %d objects / %d bytes, the heap holds %d / %d", liveObjs, liveBytes, h.NumObjects(), h.Used())
	}
	t.Logf("%d cross-bundle calls, %d instructions", in, instrs)
}
