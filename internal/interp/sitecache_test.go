package interp_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// Call-site caches (closure.go callSite.lines): every call site caches,
// per receiver class (invokevirtual) or target class, the target it
// dispatched to and, for a leaf, the leaf's body compiled for the site —
// parameters read where the caller's operands are, temporaries in the
// caller frame's scratch. These tests pin that a cached line is exact in
// every state of the cache, that it follows kills and rebinding of the
// callee's bundle, and that no reference a body wrote outlives the call.

const (
	scBase = "sc/Base"
	scMain = "sc/Main"
	// scImpls is how many receiver classes the oracle's sites see: past
	// the cache's capacity of eight.
	scImpls = 10
)

func scImpl(j int) string { return fmt.Sprintf("sc/Impl%d", j) }

// siteCacheCallee is the callee bundle: Base with a receiver-field void
// leaf (touch), reference-returning leaves through a parameter (pick) and
// through the receiver's field (keep), an array-length leaf whose
// parameter a call checks (len), a leaf with locals of its own (scratch),
// and all(), which makes one receiver of each Impl; Impl0..Impl9
// override f, odd ones reading the receiver's field.
func siteCacheCallee() []*classfile.Class {
	init := func(super string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
		}
	}
	out := []*classfile.Class{classfile.NewClass(scBase).
		Field("v", classfile.KindInt).
		Field("link", classfile.KindRef).
		Method(classfile.InitName, "()V", 0, init(classfile.ObjectClassName)).
		Method("f", "(I)I", 0, func(a *bytecode.Assembler) { a.ILoad(1).Const(1).IAdd().IReturn() }).
		Method("touch", "(I)V", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).ILoad(1).Const(0xFF).IAnd().PutField(scBase, "v").Return()
		}).
		Method("pick", "(Ljava/lang/Object;)Ljava/lang/Object;", 0, func(a *bytecode.Assembler) {
			a.ALoad(1).AReturn()
		}).
		Method("keep", "(Ljava/lang/Object;)Ljava/lang/Object;", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).ALoad(1).PutField(scBase, "link").ALoad(0).GetField(scBase, "link").AReturn()
		}).
		Method("len", "(Ljava/lang/Object;)I", 0, func(a *bytecode.Assembler) {
			a.ALoad(1).ArrayLength().IReturn()
		}).
		Method("scratch", "(I)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).Const(3).IMul().IStore(2).IInc(2, 1).ILoad(2).ILoad(1).IAdd().IReturn()
		}).
		Method("all", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(scImpls).NewArray("").AStore(0)
			for j := 0; j < scImpls; j++ {
				a.ALoad(0).Const(int64(j)).New(scImpl(j)).Dup().
					InvokeSpecial(scImpl(j), classfile.InitName, "()V").ArrayStore()
			}
			a.ALoad(0).AReturn()
		}).MustBuild()}
	for j := 0; j < scImpls; j++ {
		k, odd := int64(j+1), j%2 == 1
		out = append(out, classfile.NewClass(scImpl(j)).Super(scBase).
			Method(classfile.InitName, "()V", 0, init(scBase)).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1)
				if odd {
					a.ALoad(0).GetField(scBase, "v").IAdd()
				}
				a.Const(k).IAdd().IReturn()
			}).MustBuild())
	}
	return out
}

// siteCacheCaller is the caller bundle: run(recv, k, n) makes n rounds of
// calls on the receivers recv[i % k], so its sites' caches grow with k.
// Its sites bind the leaves' parameters from locals, from a constant and
// from the stack (receiver and argument both), deliver results to a local
// and to the stack, and call a void leaf, two reference-returning ones, a
// leaf with locals of its own, and len, whose argument is null every
// fourth round (the callee throws and run catches it).
func siteCacheCaller() *classfile.Class {
	const f, obj = "(I)I", "(Ljava/lang/Object;)Ljava/lang/Object;"
	return classfile.NewClass(scMain).
		Method("run", "(Ljava/lang/Object;II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0=recv 1=k 2=n 3=acc 4=i 5=r 6=tmp
			a.Const(1).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(4).ILoad(2).IfICmpGe("done")
			a.ALoad(0).ILoad(4).ILoad(1).IRem().ArrayLoad().AStore(5)
			// Parameters from locals, the result folded into a local.
			a.ALoad(5).ILoad(3).InvokeVirtual(scBase, "f", f).IStore(3)
			// A constant parameter, the result on the stack.
			a.ILoad(3).ALoad(5).Const(5).InvokeVirtual(scBase, "f", f).IAdd().Const(0xFFFF).IAnd().IStore(3)
			// Receiver and argument on the stack.
			a.ALoad(0).ILoad(4).ILoad(1).IRem().ArrayLoad().
				ILoad(3).Const(1).IAdd().InvokeVirtual(scBase, "f", f).IStore(3)
			// A void leaf; reference-returning leaves.
			a.ALoad(5).ILoad(3).InvokeVirtual(scBase, "touch", "(I)V")
			a.ALoad(5).ALoad(0).InvokeVirtual(scBase, "pick", obj).AStore(6)
			a.ALoad(5).ALoad(6).InvokeVirtual(scBase, "keep", obj).ArrayLength().ILoad(3).IAdd().IStore(3)
			// Locals of the leaf's own.
			a.ALoad(5).ILoad(3).InvokeVirtual(scBase, "scratch", f).Const(0xFFFF).IAnd().IStore(3)
			// A checked parameter, null every fourth round.
			a.Label("try").ILoad(3).ALoad(5)
			a.ILoad(4).Const(3).IAnd().IfNe("arr").Null().Goto("call")
			a.Label("arr").ALoad(0)
			a.Label("call").InvokeVirtual(scBase, "len", "(Ljava/lang/Object;)I").IAdd().IStore(3).Goto("next")
			a.Label("catch").Pop().ILoad(3).Const(7).IXor().IStore(3)
			a.Label("next").IInc(4, 1).Goto("loop")
			a.Handler("try", "catch", "catch", interp.ClassNullPointerException)
			a.Label("done").ILoad(3).IReturn()
		}).MustBuild()
}

// scPair is the oracle's set-up: the callee bundle's receivers and the
// caller's driver, in two isolates (one in Shared mode).
type scPair struct {
	callee, caller *core.Isolate
	recv           heap.Value
	run            *classfile.Method
}

func newSCPair(t *testing.T, vm *interp.VM) scPair {
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
	if err := callee.Loader().DefineAll(siteCacheCallee()); err != nil {
		t.Fatal(err)
	}
	p := scPair{callee: callee, caller: callee}
	callerLoader := vm.Registry().NewLoader("caller")
	if vm.World().Isolated() {
		if p.caller, err = vm.World().NewIsolate("caller", callerLoader); err != nil {
			t.Fatal(err)
		}
	}
	callerLoader.AddDelegate(callee.Loader())
	if err := callerLoader.DefineAll([]*classfile.Class{siteCacheCaller()}); err != nil {
		t.Fatal(err)
	}
	base, err := callee.Loader().Lookup(scBase)
	if err != nil {
		t.Fatal(err)
	}
	p.recv = callStatic(t, vm, callee, base, "all")
	main, err := callerLoader.Lookup(scMain)
	if err != nil {
		t.Fatal(err)
	}
	p.run = findMethod(t, main, "run")
	return p
}

// accountRows is every isolate's instructions, CPU samples and calls in
// and out, sorted, and the clock and instruction total.
func accountRows(vm *interp.VM) string {
	var rows []string
	for _, s := range vm.Snapshots() {
		rows = append(rows, fmt.Sprintf("%s: instr=%d samples=%d in=%d out=%d",
			s.IsolateName, s.Instructions, s.CPUSamples, s.InterBundleCallsIn, s.InterBundleCallsOut))
	}
	sort.Strings(rows)
	return fmt.Sprintf("total=%d clock=%d\n%s", vm.TotalInstructions(), vm.Clock(), strings.Join(rows, "\n"))
}

// runSiteCacheOracle walks the caller's sites from one receiver class to
// three, eight and ten — mono, poly, full and past capacity — twice, on
// the seed switch or the closure engine, then, in Isolated mode, kills the
// callee and calls once more, and reports the results and accounts. On
// the closure engine it also reports the sites' caches after each step of
// the first walk (SiteLinesForTest).
func runSiteCacheOracle(t *testing.T, mode core.Mode, seed bool, every int) (trace string, caches [][]string) {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: mode, SampleEvery: every, DisablePrepare: seed})
	syslib.MustInstall(vm)
	p := newSCPair(t, vm)
	var out strings.Builder
	call := func(k int64) {
		v, th, err := vm.CallRoot(p.caller, p.run, []heap.Value{p.recv, heap.IntVal(k), heap.IntVal(40)}, 50_000_000)
		fmt.Fprintf(&out, "k=%d result=%d err=%v failure=%q\n", k, v.I, err, th.FailureString())
	}
	for pass := 0; pass < 2; pass++ {
		for _, k := range []int64{1, 3, 8, scImpls} {
			call(k)
			if pc := p.run.Code.Prepared(); pass == 0 && pc != nil {
				caches = append(caches, interp.SiteLinesForTest(pc))
			}
		}
	}
	if mode == core.ModeIsolated {
		if err := vm.KillIsolate(nil, p.callee); err != nil {
			t.Fatal(err)
		}
		call(scImpls)
	}
	out.WriteString(accountRows(vm))
	return out.String(), caches
}

// TestSiteCacheOracle runs the cache walk on the closure engine against
// the seed switch in both modes at sampling periods 1, 2, 3 and 127:
// results, failures, every isolate's instructions, CPU samples and call
// counts, and the clock must be equal. Every site of the walk must cache
// one inlined line per receiver class it saw, up to eight.
func TestSiteCacheOracle(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for _, every := range []int{1, 2, 3, 127} {
			ref, _ := runSiteCacheOracle(t, mode, true, every)
			got, caches := runSiteCacheOracle(t, mode, false, every)
			if got != ref {
				t.Fatalf("%v every=%d: closure diverges from the seed switch\n got %s\nwant %s", mode, every, got, ref)
			}
			if !strings.Contains(ref, "k=8 result=") || strings.Count(ref, `failure=""`) != 8 {
				t.Fatalf("%v every=%d: a walk did not finish cleanly:\n%s", mode, every, ref)
			}
			for i, k := range []int{1, 3, 8, 8} {
				// One site per invoke and binding: 8 invokes, and len's
				// argument and pick's receiver also bind from the stack
				// in blocks that start mid-way (len's receivers split
				// between its two sites by the null pattern).
				if len(caches[i]) != 10 {
					t.Fatalf("%v every=%d: %d sites, want 10: %v", mode, every, len(caches[i]), caches[i])
				}
				fullest := fullestSites(caches[i])
				for _, name := range []string{"f", "touch", "pick", "keep", "scratch"} {
					if got, want := fullest[name], fmt.Sprintf("lines=%d inlined=%d", k, k); got != want {
						t.Fatalf("%v every=%d: after %d receiver classes, the %s sites' fullest cache holds %s, want %s",
							mode, every, []int{1, 3, 8, scImpls}[i], name, got, want)
					}
				}
			}
			if mode == core.ModeIsolated && !strings.Contains(ref, "call into killed isolate callee") {
				t.Fatalf("every=%d: the call into the killed callee did not throw:\n%s", every, ref)
			}
		}
	}
}

// runSiteCacheInvalidation runs Table 1's rundrag loop (paper.CallerClasses)
// in Isolated mode on the seed switch or the closure engine, kills the
// callee once the loop has run a while — its sites' lines are cached by
// then — and lets the thread finish; then frees the dead callee, rebinds
// its loader to a new isolate, binds a service made there and runs the
// loop again. It reports the thread's end, the callee's calls in at the
// kill and after, and every account.
func runSiteCacheInvalidation(t *testing.T, seed bool) string {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, DisablePrepare: seed})
	syslib.MustInstall(vm)
	callee := newXBCallee(t, vm)
	p := newXBPair(t, vm, callee, "caller")
	rundrag := findMethod(t, p.driver, "rundrag")
	var out strings.Builder
	th, err := vm.SpawnThread("drag", p.caller, rundrag, []heap.Value{heap.IntVal(1_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	vm.Run(20_000)
	if th.Done() {
		t.Fatal("the loop finished before the kill")
	}
	if err := vm.KillIsolate(nil, callee); err != nil {
		t.Fatal(err)
	}
	atKill := vm.SnapshotOf(callee).InterBundleCallsIn
	vm.Run(0)
	fmt.Fprintf(&out, "killed mid-loop: done=%v failure=%q calls in %d at the kill, %d after\n",
		th.Done(), th.FailureString(), atKill, vm.SnapshotOf(callee).InterBundleCallsIn)

	// Drop the dead bundle's service, free the bundle and rebind its loader.
	callStatic(t, vm, p.caller, p.driver, "bind", heap.Null())
	vm.CollectGarbage(nil)
	if !callee.Disposed() {
		t.Fatal("the killed callee is not disposed")
	}
	if err := vm.FreeIsolate(callee); err != nil {
		t.Fatal(err)
	}
	reborn, err := vm.World().NewIsolate("reborn", callee.Loader())
	if err != nil {
		t.Fatal(err)
	}
	svcClass, err := reborn.Loader().Lookup("micro/callee/Service")
	if err != nil {
		t.Fatal(err)
	}
	callStatic(t, vm, p.caller, p.driver, "bind", callStatic(t, vm, reborn, svcClass, "make"))
	v, th2, err := vm.CallRoot(p.caller, rundrag, []heap.Value{heap.IntVal(500)}, 0)
	fmt.Fprintf(&out, "rebound: result=%d err=%v failure=%q reborn calls in %d\n",
		v.I, err, th2.FailureString(), vm.SnapshotOf(reborn).InterBundleCallsIn)
	out.WriteString(accountRows(vm))
	return out.String()
}

// TestSiteCacheInvalidation: a cached cross-bundle line follows the
// callee's bundle. Killed mid-loop, the callee takes no call after the
// kill — the next call throws; freed and its loader rebound to a new
// isolate, the same sites migrate into the new one. The closure engine
// must agree with the seed switch on all of it.
func TestSiteCacheInvalidation(t *testing.T) {
	ref := runSiteCacheInvalidation(t, true)
	got := runSiteCacheInvalidation(t, false)
	if got != ref {
		t.Fatalf("closure diverges from the seed switch\n got %s\nwant %s", got, ref)
	}
	if !strings.Contains(got, "StoppedIsolateException") || !strings.Contains(got, "reborn calls in 500") {
		t.Fatalf("the kill or the rebinding did not show:\n%s", got)
	}
	var atKill, after int64
	if _, err := fmt.Sscanf(got[strings.Index(got, "calls in "):], "calls in %d at the kill, %d after", &atKill, &after); err != nil {
		t.Fatal(err)
	}
	if atKill == 0 || after != atKill {
		t.Fatalf("callee calls in: %d at the kill, %d after; want a running loop and no call after the kill", atKill, after)
	}
}

// fullestSites maps each invoked method's name to the fullest cache among
// its sites (SiteLinesForTest): blocks that bind an invoke's operands
// differently — one starts between its argument pushes — compile a site
// each.
func fullestSites(sites []string) map[string]string {
	out := map[string]string{}
	for _, site := range sites {
		name, cache, _ := strings.Cut(site, " ")
		if cache > out[name] {
			out[name] = cache
		}
	}
	return out
}

// TestInlinedBodyLeavesNoReference: a leaf body that moves a reference
// through a local of its own and the operand stack (dup, pop) runs in the
// caller frame's scratch — the call sits at the caller's deepest stack, so
// the body's second push lands in the headroom past MaxStack —; once the
// call is over, no scratch slot holds the reference. The loop is stopped
// mid-run, with the caller's frame live.
func TestInlinedBodyLeavesNoReference(t *testing.T) {
	const cn = "sc/Clear"
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		vm := interp.NewVM(interp.Options{Mode: mode})
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("clear")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().DefineAll([]*classfile.Class{classfile.NewClass(cn).
			Method("keep", "(Ljava/lang/Object;)Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ALoad(0).AStore(1).ALoad(1).Dup().Pop().AReturn()
			}).
			Method("loop", "(Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				// locals: 0=o 1=n 2=i 3=r
				a.Const(0).IStore(2)
				a.Label("loop").ILoad(2).ILoad(1).IfICmpGe("done")
				a.Const(7).ALoad(0).InvokeStatic(cn, "keep", "(Ljava/lang/Object;)Ljava/lang/Object;").AStore(3).Pop()
				a.IInc(2, 1).Goto("loop")
				a.Label("done").ILoad(2).IReturn()
			}).MustBuild()}); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup(cn)
		obj, err := vm.Heap().AllocArray(c, 4, iso.ID())
		if err != nil {
			t.Fatal(err)
		}
		loop := findMethod(t, c, "loop")
		th, err := vm.SpawnThread("clear", iso, loop, []heap.Value{heap.RefVal(obj), heap.IntVal(1 << 20)})
		if err != nil {
			t.Fatal(err)
		}
		vm.Run(20_000)
		if th.Done() {
			t.Fatalf("%v: the loop finished", mode)
		}
		if got := interp.SiteLinesForTest(loop.Code.Prepared()); len(got) != 1 || got[0] != "keep lines=1 inlined=1" {
			t.Fatalf("%v: the loop's sites hold %v, want one site with one inlined line", mode, got)
		}
		if interp.InlineScratchHoldsForTest(th, obj) {
			t.Fatalf("%v: a frame's scratch still holds the reference an inlined body moved", mode)
		}
	}
}

// TestLeafScratchOracle: leaves that write their parameters keep them in
// the caller frame's scratch locals. bump4 writes four, all the scratch
// there is, and is inlined; bump5 writes five and bump4Local keeps a fifth
// local, so neither is a leaf and both calls stay real. swapSub's swap
// pushes both of its parameters, which the caller passes on the stack,
// into the headroom above them, and incMul reads its stack parameter again
// after arithmetic above it. A loop calls them with parameters from
// locals, a constant and the stack; the closure engine must agree with
// the seed switch in both modes.
func TestLeafScratchOracle(t *testing.T) {
	const cn, sh = "sc/Bumps", "lf/Shapes"
	run := func(mode core.Mode, seed bool, every int) string {
		vm := interp.NewVM(interp.Options{Mode: mode, SampleEvery: every, DisablePrepare: seed})
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("bumps")
		if err != nil {
			t.Fatal(err)
		}
		caller := classfile.NewClass(cn).
			Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				// locals: 0=n 1=acc 2=i
				a.Const(0).IStore(1)
				a.Const(0).IStore(2)
				a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
				a.ILoad(1).ILoad(2).Const(3).ILoad(1).Const(1).IAdd().InvokeStatic(sh, "bump4", "(IIII)I").IStore(1)
				a.ILoad(1).ILoad(1).ILoad(2).Const(5).ILoad(2).ILoad(1).IXor().Const(7).
					InvokeStatic(sh, "bump5", "(IIIII)I").IAdd().Const(0xFFFFF).IAnd().IStore(1)
				a.ILoad(1).ILoad(2).ILoad(1).Const(2).ILoad(2).
					InvokeStatic(sh, "bump4Local", "(IIII)I").IAdd().Const(0xFFFFF).IAnd().IStore(1)
				a.ILoad(1).ILoad(2).Const(1).IAdd().ILoad(1).Const(3).IMul().
					InvokeStatic(sh, "swapSub", "(II)I").IAdd().Const(0xFFFFF).IAnd().IStore(1)
				a.ILoad(1).ILoad(2).Const(7).IAnd().InvokeStatic(sh, "incMul", "(I)I").IAdd().Const(0xFFFFF).IAnd().IStore(1)
				a.IInc(2, 1).Goto("loop")
				a.Label("done").ILoad(1).IReturn()
			}).MustBuild()
		if err := iso.Loader().DefineAll(append(shapeClasses(), caller)); err != nil {
			t.Fatal(err)
		}
		c, err := iso.Loader().Lookup(cn)
		if err != nil {
			t.Fatal(err)
		}
		m := findMethod(t, c, "run")
		v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(300)}, 50_000_000)
		out := fmt.Sprintf("result=%d err=%v failure=%q\n%s", v.I, err, th.FailureString(), accountRows(vm))
		if !seed {
			out += fmt.Sprint("\n", interp.SiteLinesForTest(m.Code.Prepared()))
		}
		return out
	}
	const sites = "\n[bump4 lines=1 inlined=1 bump4Local lines=1 inlined=0 bump5 lines=1 inlined=0 incMul lines=1 inlined=1 swapSub lines=1 inlined=1]"
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for _, every := range []int{1, 3} {
			got, want := run(mode, false, every), run(mode, true, every)
			if !strings.Contains(want, `err=<nil> failure=""`) {
				t.Fatalf("%v every=%d: the loop failed:\n%s", mode, every, want)
			}
			if got != want+sites {
				t.Fatalf("%v every=%d: closure diverges from the seed switch, or its sites do not inline bump4, incMul and swapSub alone\n got %s\nwant %s%s", mode, every, got, want, sites)
			}
		}
	}
}
