package interp_test

import (
	"fmt"
	"reflect"
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

// Leaf inlining (closure.go callSite): a call whose target is a short
// straight-line body, defined by the caller's own loader, runs inside the
// caller's closure block. These tests pin that it is invisible — the same
// results, failures, instruction counts, clocks and accounts as the seed
// switch, which makes every call — and that it happens where it should and
// nowhere else.

const (
	lfBase = "lf/Base"
	lfS    = "lf/S"
	lfMain = "lf/Main"
	// lfDepth is the oracle VMs' MaxFrameDepth.
	lfDepth = 48
)

func lfImpl(j int) string { return fmt.Sprintf("lf/Impl%d", j) }

// leafClasses builds the leaf oracle's classes: Base with receiver getter
// and setter leaves (an int field and a reference field), a void leaf with
// an empty body, f, and bad; eight subclasses overriding f — even ones pure
// arithmetic, odd ones reading the receiver's field; S, whose <clinit>
// runs a loop over its statics and whose static sq is a leaf; and Main,
// whose run(n) loop calls them all, and whose deep(k) recurses k times
// before it calls the static leaf lf/Main.sq.
func leafClasses() []*classfile.Class {
	init := func(super string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
		}
	}
	out := []*classfile.Class{classfile.NewClass(lfBase).
		Field("v", classfile.KindInt).
		Field("link", classfile.KindRef).
		Method(classfile.InitName, "()V", 0, init(classfile.ObjectClassName)).
		Method("f", "(I)I", 0, func(a *bytecode.Assembler) { a.ILoad(1).Const(1).IAdd().IReturn() }).
		Method("get", "()I", 0, func(a *bytecode.Assembler) { a.ALoad(0).GetField(lfBase, "v").IReturn() }).
		Method("set", "(I)V", 0, func(a *bytecode.Assembler) { a.ALoad(0).ILoad(1).PutField(lfBase, "v").Return() }).
		Method("getLink", "()Ljava/lang/Object;", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).GetField(lfBase, "link").AReturn()
		}).
		Method("setLink", "(Ljava/lang/Object;)V", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).ALoad(1).PutField(lfBase, "link").Return()
		}).
		Method("nop", "()V", 0, func(a *bytecode.Assembler) { a.Return() }).
		// bad reads a field Base does not have: every call throws
		// NullPointerException at the unresolvable getfield, so its slot
		// stays unresolved and the call micro must never inline it.
		Method("bad", "()I", 0, func(a *bytecode.Assembler) { a.ALoad(0).GetField(lfBase, "missing").IReturn() }).
		MustBuild()}
	for j := 0; j < 8; j++ {
		k := int64(j + 1)
		odd := j%2 == 1
		out = append(out, classfile.NewClass(lfImpl(j)).Super(lfBase).
			Method(classfile.InitName, "()V", 0, init(lfBase)).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1)
				if odd {
					a.ALoad(0).GetField(lfBase, "v").IAdd()
				}
				a.Const(k).IAdd().Const(0xFFFF).IAnd().IReturn()
			}).MustBuild())
	}
	out = append(out,
		classfile.NewClass(lfS).
			StaticField("n", classfile.KindInt).
			StaticField("sum", classfile.KindInt).
			Method(classfile.ClinitName, "()V", classfile.FlagStatic, staticLoopClinit(lfS, 9)).
			Method("sq", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ILoad(0).ILoad(0).IMul().Const(0xFFFF).IAnd().IReturn()
			}).MustBuild(),
		classfile.NewClass(lfMain).
			Method("sq", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ILoad(0).Const(3).IMul().IReturn()
			}).
			Method("deep", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ILoad(0).IfNe("rec")
				a.Const(7).InvokeStatic(lfMain, "sq", "(I)I").IReturn()
				a.Label("rec").ILoad(0).Const(1).ISub().InvokeStatic(lfMain, "deep", "(I)I").IReturn()
			}).
			Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				// locals: 0=n 1=acc 2=i 3=receivers 4=r
				a.Const(8).NewArray("").AStore(3)
				for j := 0; j < 8; j++ {
					a.ALoad(3).Const(int64(j)).New(lfImpl(j)).Dup().
						InvokeSpecial(lfImpl(j), classfile.InitName, "()V").ArrayStore()
				}
				a.Const(1).IStore(1)
				a.Const(0).IStore(2)
				a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
				// An 8-receiver megamorphic leaf site.
				a.ALoad(3).ILoad(2).ILoad(1).IAdd().Const(7).IAnd().ArrayLoad().
					ILoad(1).InvokeVirtual(lfBase, "f", "(I)I").IStore(1)
				// A static leaf whose class has a <clinit>.
				a.ILoad(1).ILoad(1).Const(0xFF).IAnd().InvokeStatic(lfS, "sq", "(I)I").IAdd().
					Const(0xFFFF).IAnd().IStore(1)
				// Receiver setter and getter leaves, int and reference; a
				// fresh array per iteration keeps the collector busy.
				a.ALoad(3).ILoad(2).Const(3).IAdd().Const(7).IAnd().ArrayLoad().AStore(4)
				a.ALoad(4).ILoad(1).Const(0xFF).IAnd().InvokeVirtual(lfBase, "set", "(I)V")
				a.ILoad(1).ALoad(4).InvokeVirtual(lfBase, "get", "()I").IXor().IStore(1)
				a.ALoad(4).Const(48).NewArray("").InvokeVirtual(lfBase, "setLink", "(Ljava/lang/Object;)V")
				a.ALoad(4).InvokeVirtual(lfBase, "getLink", "()Ljava/lang/Object;").IfNull("nolink")
				a.IInc(1, 1)
				a.Label("nolink")
				// A void leaf with an empty body.
				a.ALoad(4).InvokeVirtual(lfBase, "nop", "()V")
				// A leaf-shaped body whose field slot never resolves.
				a.Label("badtry").ILoad(1).ALoad(4).InvokeVirtual(lfBase, "bad", "()I").IAdd().IStore(1).Goto("badnext")
				a.Label("badcatch").Pop().ILoad(1).Const(31).IXor().IStore(1)
				a.Label("badnext")
				a.Handler("badtry", "badcatch", "badcatch", "java/lang/NullPointerException")
				// A leaf reached at MaxFrameDepth-1 (even i) and at
				// MaxFrameDepth, where it throws StackOverflowError.
				a.Label("try").ILoad(2).Const(1).IAnd().Const(lfDepth-3).IAdd().
					InvokeStatic(lfMain, "deep", "(I)I").ILoad(1).IAdd().IStore(1).Goto("next")
				a.Label("catch").Pop().ILoad(1).Const(23).IXor().IStore(1)
				a.Label("next").IInc(2, 1).Goto("loop")
				a.Handler("try", "catch", "catch", interp.ClassStackOverflowError)
				a.Label("done").ILoad(1).GetStatic(lfS, "sum").IAdd().IReturn()
			}).MustBuild(),
	)
	return out
}

// leafRun is what one leaf-oracle run produced.
type leafRun struct {
	oracleTrace
	// entries counts TraceMethodEntry calls per method (traced runs only).
	entries string
}

// runLeafOracle runs lf/Main.run in two isolates sharing an isolate-less
// template loader — the second isolate's first calls initialize S for
// itself — (in one, twice, under Shared) on the engine newVM builds. trace installs a
// TraceMethodEntry hook, under which every call must be a real one.
func runLeafOracle(t *testing.T, newVM func(interp.Options) *interp.VM, mode core.Mode, gc oracleGC, trace bool) leafRun {
	t.Helper()
	pct, stride := gc.options()
	vm := newVM(interp.Options{Mode: mode, HeapLimit: 32 << 10, GCThresholdPercent: pct, GCMarkStride: stride, MaxFrameDepth: lfDepth})
	syslib.MustInstall(vm)
	counts := map[string]int{}
	if trace {
		vm.TraceMethodEntry = func(m *classfile.Method, iso *core.Isolate) { counts[m.QualifiedName()+"@"+iso.Name()]++ }
	}
	tl := vm.Registry().NewLoader("lf-template")
	if err := tl.DefineAll(leafClasses()); err != nil {
		t.Fatal(err)
	}
	var out leafRun
	var iso *core.Isolate
	for k, name := range []string{"a", "b"} {
		// Shared mode has one isolate: it runs twice.
		if iso == nil || mode == core.ModeIsolated {
			var err error
			if iso, err = vm.NewIsolate(name); err != nil {
				t.Fatal(err)
			}
			iso.Loader().AddDelegate(tl)
		}
		c, err := iso.Loader().Lookup(lfMain)
		if err != nil {
			t.Fatal(err)
		}
		v, th, err := vm.CallRoot(iso, findMethod(t, c, "run"), []heap.Value{heap.IntVal(int64(20 + k))}, 5_000_000)
		if err != nil {
			t.Fatalf("%s: host error %v", name, err)
		}
		out.result = out.result*131 + v.I
		out.failure += th.FailureString() + ";"
	}
	vm.CollectGarbage(nil)
	out.total, out.clock = vm.TotalInstructions(), vm.Clock()
	out.incCycles, out.barrierRecords = vm.Heap().IncrementalCycles(), vm.Heap().BarrierRecords()
	out.perIsolate = snapshotColumns(vm)
	if trace {
		var keys []string
		for k, n := range counts {
			keys = append(keys, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(keys)
		out.entries = strings.Join(keys, " ")
	}
	return out
}

// snapshotColumns is the oracle's per-isolate comparison surface.
func snapshotColumns(vm *interp.VM) map[string][9]int64 {
	cols := map[string][9]int64{}
	for _, s := range vm.Snapshots() {
		cols[s.IsolateName] = [9]int64{
			s.Instructions, s.CPUSamples,
			s.AllocatedObjects, s.AllocatedBytes,
			s.LiveObjects, s.LiveBytes,
			s.GCActivations,
			s.InterBundleCallsIn, s.InterBundleCallsOut,
		}
	}
	return cols
}

// TestLeafInlineOracle runs the leaf program on {seed switch, closure
// blocks} × {Shared, Isolated} × {exact, paced collector}, traced and
// untraced: the closure blocks must agree with the seed switch on results,
// failures, instruction totals, clock and per-isolate accounts, the paced
// runs with the exact ones but for GCActivations, and a traced run with
// the untraced one and with the closure run's entry counts. The program's
// even iterations reach a leaf at MaxFrameDepth-1, its odd ones overflow
// the stack at that leaf, and the paced runs record barrier traffic from
// the setter leaf.
func TestLeafInlineOracle(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		var exact leafRun
		for _, gc := range []oracleGC{gcExact, gcIncPaced} {
			ref := runLeafOracle(t, engines["seed switch"], mode, gc, false)
			if ref.failure != ";;" {
				t.Fatalf("mode %v: the reference run failed: %s", mode, ref.failure)
			}
			if d := ref.diff(runLeafOracle(t, engines["closure"], mode, gc, false).oracleTrace); d != "" {
				t.Fatalf("mode %v gc %d: closure diverges from the seed switch: %s", mode, gc, d)
			}
			traced := runLeafOracle(t, engines["seed switch"], mode, gc, true)
			if d := ref.diff(traced.oracleTrace); d != "" {
				t.Fatalf("mode %v gc %d: tracing changed the run: %s", mode, gc, d)
			}
			got := runLeafOracle(t, engines["closure"], mode, gc, true)
			if d := traced.diff(got.oracleTrace); d != "" || got.entries != traced.entries {
				t.Fatalf("mode %v gc %d: traced closure diverges: %s\n got entries %s\nwant %s", mode, gc, d, got.entries, traced.entries)
			}
			if gc == gcExact {
				exact = ref
			} else {
				if d := exact.maskGCActivations().diff(ref.maskGCActivations()); d != "" {
					t.Fatalf("mode %v: the paced collector diverges from the exact one: %s", mode, d)
				}
				if ref.incCycles == 0 || ref.barrierRecords == 0 {
					t.Fatalf("mode %v: the paced runs opened %d cycles with %d barrier records", mode, ref.incCycles, ref.barrierRecords)
				}
			}
		}
	}
}

// killLeafClasses is the killed-isolate scenario's template: run(x)
// returns the leaf f(x).
func killLeafClasses() []*classfile.Class {
	const cn = "kl/Main"
	return []*classfile.Class{classfile.NewClass(cn).
		Method("f", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(5).IAdd().IReturn()
		}).
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).InvokeStatic(cn, "f", "(I)I").Const(2).IMul().IReturn()
		}).MustBuild()}
}

// TestLeafInlineKilledIsolate runs template code in an isolate that was
// killed before the thread started (the template's loader has no isolate,
// so nothing refuses the frames): the call to the leaf f goes through, and
// its return into the killed isolate's frame throws, uncaught. Every
// engine must agree, so the call micro must not inline there; a live
// isolate inlines it.
func TestLeafInlineKilledIsolate(t *testing.T) {
	want := map[bool]string{}
	for _, e := range []string{"seed switch", "closure"} {
		for _, kill := range []bool{false, true} {
			vm := engines[e](interp.Options{Mode: core.ModeIsolated})
			syslib.MustInstall(vm)
			if _, err := vm.NewIsolate("platform"); err != nil {
				t.Fatal(err)
			}
			tl := vm.Registry().NewLoader("kl-template")
			if err := tl.DefineAll(killLeafClasses()); err != nil {
				t.Fatal(err)
			}
			iso, err := vm.NewIsolate("victim")
			if err != nil {
				t.Fatal(err)
			}
			iso.Loader().AddDelegate(tl)
			c, _ := iso.Loader().Lookup("kl/Main")
			// A first call prepares f, so the next one may inline.
			callStatic(t, vm, iso, c, "run", heap.IntVal(1))
			if kill {
				if err := vm.KillIsolate(nil, iso); err != nil {
					t.Fatal(err)
				}
			}
			v, th, err := vm.CallRoot(iso, findMethod(t, c, "run"), []heap.Value{heap.IntVal(3)}, 1000)
			got := fmt.Sprintf("err=%v result=%d failure=%q instrs=%d", err, v.I, th.FailureString(), vm.TotalInstructions())
			if kill != strings.Contains(got, "return into killed isolate") {
				t.Fatalf("%s kill=%v: %s", e, kill, got)
			}
			if want[kill] == "" {
				want[kill] = got
			} else if got != want[kill] {
				t.Fatalf("%s kill=%v: %s\nthe seed switch: %s", e, kill, got, want[kill])
			}
		}
	}
}

// TestLeafInlineModeSymmetry steps Fig 1's call loops in both modes. Every
// call site is a leaf call inlined into the caller's block in either mode:
// the cross-bundle inc loop and Table 1's rundrag (drag is a leaf through
// its parameter guard), which migrate inside the micro in Isolated mode,
// and the same-bundle inc loop. Each loop, from its set-up to the return,
// retires as one engine step.
func TestLeafInlineModeSymmetry(t *testing.T) {
	const n = 10
	for _, mode := range []core.Mode{core.ModeIsolated, core.ModeShared} {
		step := func(kind paper.MicroKind, driver string) []int64 {
			t.Helper()
			r, err := paper.NewMicroRunner(mode, kind, n)
			if err != nil {
				t.Fatal(err)
			}
			m, err := r.Driver().Class.LookupMethod(driver, paper.MicroDriverDesc)
			if err != nil {
				t.Fatal(err)
			}
			vm := r.VM()
			for warm := 0; warm < 2; warm++ {
				if _, _, err := vm.CallRoot(r.Isolate(), m, []heap.Value{heap.IntVal(n)}, 0); err != nil {
					t.Fatal(err)
				}
			}
			th, err := vm.SpawnThread(driver, r.Isolate(), m, []heap.Value{heap.IntVal(n)})
			if err != nil {
				t.Fatal(err)
			}
			sizes, err := vm.StepSizesForTest(th, 1<<40, 1<<20)
			if err != nil || !th.Done() || th.Failure() != nil {
				t.Fatalf("%v %s: %v / %s", mode, driver, err, th.FailureString())
			}
			return sizes
		}
		// inc: a 6-instruction set-up, 9 per iteration in the caller and 9
		// in the body, the exit test and the return.
		if got, want := step(paper.MicroInter, paper.MicroDriverMethod), []int64{6 + 18*n + 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: cross-bundle inc loop steps %v, want %v", mode, got, want)
		}
		// rundrag: 9 set-up, 9 + 12 per iteration.
		if got, want := step(paper.MicroInter, paper.DragDriverMethod), []int64{9 + 21*n + 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Table 1 rundrag steps %v, want %v", mode, got, want)
		}
		// The driver's set-up: new, dup and the real call of its <init>,
		// which is no leaf; then <init>, with Object.<init> — a leaf of the
		// system loader — inlined into it; then the loop and the return.
		if got, want := step(paper.MicroIntra, paper.MicroDriverMethod), []int64{3, 4, 19 * n}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: same-bundle inc loop steps %v, want %v", mode, got, want)
		}
	}
}

// shapeClasses are TestLeafFormShapes' parameter-guard cases: lengths of
// an array parameter, of a parameter the body overwrites first, of a
// local that is no parameter, and of the receiver's field; a field of a
// second reference parameter reached through swap.
func shapeClasses() []*classfile.Class {
	const cn = "lf/Shapes"
	return []*classfile.Class{classfile.NewClass(cn).
		Field("v", classfile.KindInt).
		Field("arr", classfile.KindRef).
		Method("len", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).ArrayLength().IReturn()
		}).
		Method("lenWritten", "(Ljava/lang/Object;Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(1).AStore(0).ALoad(0).ArrayLength().IReturn()
		}).
		Method("lenLocal", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).AStore(1).ALoad(1).ArrayLength().IReturn()
		}).
		Method("lenField", "()I", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).GetField(cn, "arr").ArrayLength().IReturn()
		}).
		Method("other", "(ILlf/Shapes;)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).ALoad(2).Swap().Pop().GetField(cn, "v").IReturn()
		}).
		Method("bump4", "(IIII)I", classfile.FlagStatic, bumpBody(4, false)).
		Method("bump5", "(IIIII)I", classfile.FlagStatic, bumpBody(5, false)).
		Method("bump4Local", "(IIII)I", classfile.FlagStatic, bumpBody(4, true)).
		Method("swapSub", "(II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).ILoad(1).Swap().ISub().IReturn()
		}).
		Method("incMul", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().ILoad(0).IMul().IReturn()
		}).
		MustBuild()}
}

// bumpBody is a static leaf of n int parameters that increments each of
// them and returns the first — with, when local, one more local of its own
// holding it —: it keeps n locals in scratch, or n+1.
func bumpBody(n int, local bool) func(a *bytecode.Assembler) {
	return func(a *bytecode.Assembler) {
		for k := 0; k < n; k++ {
			a.IInc(k, int32(k+1))
		}
		if local {
			a.ILoad(0).IStore(n).ILoad(n).IReturn()
			return
		}
		a.ILoad(0).IReturn()
	}
}

// TestLeafFormShapes pins which methods have a leaf form: Fig 1's inc
// (receiver field leaves), Table 1's drag (arraylength of its event
// parameter) and the megacall site's f do; the constructors (they call) do
// not. A guarded site's operand must be a parameter the body never writes,
// and a leaf keeps at most leafScratch locals, written parameters included.
func TestLeafFormShapes(t *testing.T) {
	vm := interp.NewVM(interp.Options{})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("shapes")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(append(append(paper.IntraCallClasses(), leafClasses()...), shapeClasses()...)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		class, method string
		leaf          bool
	}{
		{paper.IntraClassName, "inc", true},
		{paper.IntraClassName, "drag", true},
		{paper.IntraClassName, classfile.InitName, false},
		{lfImpl(1), "f", true},
		{lfBase, "setLink", true},
		{lfBase, "nop", true},
		{lfMain, "deep", false},
		{lfMain, "run", false},
		{"lf/Shapes", "len", true},
		{"lf/Shapes", "lenWritten", false},
		{"lf/Shapes", "lenLocal", false},
		{"lf/Shapes", "lenField", false},
		{"lf/Shapes", "other", true},
		{"lf/Shapes", "bump4", true},
		{"lf/Shapes", "bump5", false},
		{"lf/Shapes", "bump4Local", false},
		{"lf/Shapes", "swapSub", true},
		{"lf/Shapes", "incMul", true},
	} {
		c, err := iso.Loader().Lookup(tc.class)
		if err != nil {
			t.Fatal(err)
		}
		p := vm.PreparedCodeForTest(findMethod(t, c, tc.method))
		if got := interp.LeafFormForTest(p); got != tc.leaf {
			t.Fatalf("%s.%s: leaf form %v, want %v", tc.class, tc.method, got, tc.leaf)
		}
	}
}

// stormClasses is TestLeafInlineStorm's template: the megacall shape —
// eight receivers, f a leaf on each, odd ones reading their field — with
// a setter leaf storing a fresh array into the receiver every iteration.
// run(k, n) returns the accumulator megaStormSum computes.
func stormClasses() []*classfile.Class {
	classes := leafClasses()[:9] // Base and Impl0..7
	return append(classes, classfile.NewClass("lf/Storm").
		Method("run", "(II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0=k 1=n 2=acc 3=i 4=receivers
			a.Const(8).NewArray("").AStore(4)
			for j := 0; j < 8; j++ {
				a.ALoad(4).Const(int64(j)).New(lfImpl(j)).Dup().
					InvokeSpecial(lfImpl(j), classfile.InitName, "()V").ArrayStore()
			}
			a.ILoad(0).IStore(2)
			a.Const(0).IStore(3)
			a.Label("loop").ILoad(3).ILoad(1).IfICmpGe("done")
			a.ALoad(4).ILoad(3).ILoad(0).IAdd().Const(7).IAnd().ArrayLoad().
				ILoad(2).InvokeVirtual(lfBase, "f", "(I)I").IStore(2)
			a.ALoad(4).ILoad(3).Const(7).IAnd().ArrayLoad().Const(1).NewArray("").
				InvokeVirtual(lfBase, "setLink", "(Ljava/lang/Object;)V")
			a.IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(2).IReturn()
		}).MustBuild())
}

// megaStormSum is lf/Storm.run(k, n) computed on the host: receiver j adds
// j+1 (the odd ones through their field v, which is 0).
func megaStormSum(k, n int64) int64 {
	acc := k
	for i := int64(0); i < n; i++ {
		acc = (acc + (i+k)&7 + 1) & 0xFFFF
	}
	return acc
}

// TestLeafInlineStorm (-race) runs the megacall shape in eight clones of
// a template on two workers, beside a storm of collections and incremental
// cycles, interrupts of the running threads, and kills of two victim
// isolates running the same loop: every clone's checksum must be exact,
// and every victim must die of the kill.
func TestLeafInlineStorm(t *testing.T) {
	const clones, iters = 8, 20000
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 256 << 10, GCThresholdPercent: 50, GCMarkStride: 64})
	syslib.MustInstall(vm)
	tl := vm.Registry().NewLoader("storm-template")
	if err := tl.DefineAll(stormClasses()); err != nil {
		t.Fatal(err)
	}
	tpl, err := vm.NewIsolate("template")
	if err != nil {
		t.Fatal(err)
	}
	tpl.Loader().AddDelegate(tl)
	storm, err := tpl.Loader().Lookup("lf/Storm")
	if err != nil {
		t.Fatal(err)
	}
	run := findMethod(t, storm, "run")
	if v := callStatic(t, vm, tpl, storm, "run", heap.IntVal(1), heap.IntVal(100)).I; v != megaStormSum(1, 100) {
		t.Fatalf("template warm-up = %d, want %d", v, megaStormSum(1, 100))
	}
	impl, err := tl.Lookup(lfImpl(1))
	if err != nil {
		t.Fatal(err)
	}
	if p := findMethod(t, impl, "f").Code.Prepared(); p == nil || !interp.LeafFormForTest(p) {
		t.Fatal("lf/Impl1.f has no leaf form")
	}
	snap, err := vm.CaptureSnapshot(tpl, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	var threads []*interp.Thread
	for k := 0; k < clones; k++ {
		iso, err := vm.CloneIsolate(snap, fmt.Sprintf("clone%d", k))
		if err != nil {
			t.Fatal(err)
		}
		th, err := vm.SpawnThread(iso.Name(), iso, run, []heap.Value{heap.IntVal(int64(k)), heap.IntVal(iters)})
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	var victims []*core.Isolate
	var victimThreads []*interp.Thread
	for k := 0; k < 2; k++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("victim%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().DefineAll(stormClasses()); err != nil {
			t.Fatal(err)
		}
		c, _ := iso.Loader().Lookup("lf/Storm")
		th, err := vm.SpawnThread(iso.Name(), iso, findMethod(t, c, "run"), []heap.Value{heap.IntVal(0), heap.IntVal(1 << 40)})
		if err != nil {
			t.Fatal(err)
		}
		victims, victimThreads = append(victims, iso), append(victimThreads, th)
	}
	running := sched.Start(vm, sched.Config{Workers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
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
			if i == 20 || i == 40 {
				if err := vm.KillIsolate(nil, victims[i/20-1]); err != nil {
					t.Errorf("kill: %v", err)
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	res := running.Wait()
	close(stop)
	wg.Wait()
	if !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	for k, th := range threads {
		if th.Err() != nil || th.Failure() != nil {
			t.Fatalf("clone%d: %v / %s", k, th.Err(), th.FailureString())
		}
		if got, want := th.Result().I, megaStormSum(int64(k), iters); got != want {
			t.Fatalf("clone%d: run = %d, want %d", k, got, want)
		}
	}
	for k, th := range victimThreads {
		if !strings.Contains(th.FailureString(), "StoppedIsolateException") {
			t.Fatalf("victim%d: %v / %q, want the kill's exception", k, th.Err(), th.FailureString())
		}
	}
}
